package server

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// TestSessionAllocBudget prices span tracing in a daemon session's
// garbage: 100 000-operation loop-regime sessions through an in-process
// Server, client side included, with tracing on and off. Traced, a session
// may allocate at most a tenth more bytes than untraced; it allocated 1.6
// times as much while a span record was 240 bytes, copied again at every
// flush into an array of its own, and every session grew a fresh arena.
func TestSessionAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	// One P: a sync.Pool hands an item back most reliably on the P that
	// put it, and the budget is about tracing, not about which P a
	// session's goroutine landed on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := encode(t, bench.SyntheticMix(100_000), true)
	perSession := func(cfg Config) (allocated, allocs uint64) {
		_, addr, stop := startServer(t, cfg)
		defer stop()
		session := func() {
			v, err := CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(body))
			if err != nil || v.Status != trace.StatusOK || !v.Serializable {
				t.Fatalf("verdict %+v, %v: want ok and serializable", v, err)
			}
		}
		for i := 0; i < 3; i++ {
			session() // fill the pools
		}
		const n = 50
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			session()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / n, (m1.Mallocs - m0.Mallocs) / n
	}
	tracedB, tracedN := perSession(Config{})
	plainB, plainN := perSession(Config{NoSpans: true})
	t.Logf("traced: %d B, %d allocations a session; untraced: %d B, %d allocations (%.2fx the bytes)",
		tracedB, tracedN, plainB, plainN, float64(tracedB)/float64(plainB))
	if float64(tracedB) > 1.1*float64(plainB) {
		t.Errorf("a traced session allocated %d bytes, an untraced one %d: more than 1.1x", tracedB, plainB)
	}
}
