package serial

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// TestCheckIsLinear bounds the edges Check draws, transaction-internal
// ones included, by 3 × the desugared length (see the package comment),
// on three traces that stress a different part of the pass. The bound is
// on a count, not a clock: the same under the race detector and on a
// loaded host. The pairwise definition tests n(n-1)/2 pairs instead.
func TestCheckIsLinear(t *testing.T) {
	hostile := trace.Tid(1 << 30)
	x := trace.Var(1 << 30)
	m := trace.Lock(1 << 30)

	// Each of 10 000 threads reads x in a transaction of its own, then one
	// write follows: the largest set of reads since a write.
	var reads trace.Trace
	for u := trace.Tid(2); u < 10_002; u++ {
		reads = append(reads, trace.Beg(u, "read"), trace.Rd(u, 0), trace.Fin(u))
	}
	reads = append(reads, trace.Wr(1, 0))

	for _, tc := range []struct {
		name         string
		tr           trace.Trace
		serializable bool
		maxAlloc     uint64 // bytes, 0 for no bound
	}{
		{"synthetic mix", bench.SyntheticMix(1_000_000), true, 0},
		{"reads since a write", reads, true, 0},
		{"hostile ids", trace.Trace{
			trace.Beg(hostile, "h"),
			trace.Acq(hostile, m),
			trace.Rd(hostile, x),
			trace.Wr(1, x),
			trace.Wr(hostile, x),
			trace.Rel(hostile, m),
			trace.Fin(hostile),
			trace.Acq(1, m),
			trace.Rel(1, m),
		}, false, 1 << 20},
	} {
		n := len(tc.tr.Desugar())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cycle, drawn := check(tc.tr)
		runtime.ReadMemStats(&after)
		if got := cycle == nil; got != tc.serializable {
			t.Errorf("%s: serializable=%v, want %v", tc.name, got, tc.serializable)
		}
		if drawn > 3*n {
			t.Errorf("%s: drew %d edges over %d operations, over 3 per operation: Check is no longer linear", tc.name, drawn, n)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; tc.maxAlloc > 0 && alloc > tc.maxAlloc {
			t.Errorf("%s: allocated %d bytes, over %d: an allocation is sized by an id", tc.name, alloc, tc.maxAlloc)
		}
		t.Logf("%s: %d operations, %d edges drawn, %d pairs in the definition", tc.name, n, drawn, n*(n-1)/2)
	}
}
