package server

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/trace"
)

// labelledTrace is a non-serializable trace whose blocks are named
// prefix.outer, prefix.inner (nested in outer) and prefix.other: its
// warning blames outer and refutes outer and inner, its cycle runs
// through the program-order edge other's begin inserted, and its
// forensic windows hold all three begins.
func labelledTrace(t *testing.T, prefix string, binaryFmt bool) []byte {
	t.Helper()
	text := fmt.Sprintf("begin.%[1]s.outer(1)\nbegin.%[1]s.inner(1)\nrd(1,x2)\nwr(2,x2)\n"+
		"begin.%[1]s.other(2)\nwr(2,x1)\nend(2)\nwr(1,x1)\nend(1)\nend(1)\n", prefix)
	if !binaryFmt {
		return []byte(text)
	}
	tr, err := trace.ReadAuto(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return encode(t, tr, true)
}

// TestSessionLabelTables runs two sessions at once whose label tables
// mint the same ids for different names — both streams name their outer
// block first — plain and under forensics, in both wire formats. Each
// verdict's warnings and reports name that session's blocks and never
// the other's, and once the sessions are over nothing the server holds
// reaches their tables.
func TestSessionLabelTables(t *testing.T) {
	for _, forensics := range []bool{false, true} {
		for _, binaryFmt := range []bool{false, true} {
			t.Run(fmt.Sprintf("forensics=%v/binary=%v", forensics, binaryFmt), func(t *testing.T) {
				testSessionLabelTables(t, forensics, binaryFmt)
			})
		}
	}
}

func testSessionLabelTables(t *testing.T, forensics, binaryFmt bool) {
	// The hook holds each session at its start until both have started,
	// so the two decode and check side by side.
	var (
		mu      sync.Mutex
		tables  []weak.Pointer[trace.Labels]
		arrived atomic.Int32
		both    = make(chan struct{})
	)
	_, addr, stop := startServer(t, Config{MaxSessions: 4, labelsHook: func(l *trace.Labels) {
		mu.Lock()
		tables = append(tables, weak.Make(l))
		mu.Unlock()
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
		}
	}})
	defer stop()

	prefixes := []string{"alpha", "beta"}
	verdicts := make([]*trace.SessionVerdict, len(prefixes))
	var wg sync.WaitGroup
	for i, p := range prefixes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := CheckReader(addr, trace.SessionHeader{Name: p, Forensics: forensics},
				bytes.NewReader(labelledTrace(t, p, binaryFmt)))
			if err != nil {
				t.Errorf("%s: %v", p, err)
				return
			}
			verdicts[i] = v
		}()
	}
	wg.Wait()
	if arrived.Load() != 2 {
		t.Fatalf("%d sessions reached the label hook, want 2", arrived.Load())
	}

	for i, v := range verdicts {
		if v == nil {
			continue
		}
		own, other := prefixes[i], prefixes[1-i]
		if v.Status != trace.StatusOK || v.Serializable || len(v.Warnings) == 0 {
			t.Fatalf("%s: verdict %+v, want a warning", own, v)
		}
		if forensics != (len(v.Reports) == len(v.Warnings)) {
			t.Fatalf("%s: %d reports for %d warnings (forensics %v)", own, len(v.Reports), len(v.Warnings), forensics)
		}
		out := strings.Join(v.Warnings, "\n")
		for _, r := range v.Reports {
			out += "\n" + string(r)
		}
		if strings.Contains(out, other) || strings.Contains(out, "#") {
			t.Errorf("%s's verdict names another table's labels:\n%s", own, out)
		}
		for _, want := range []string{own + ".outer@0(t1) is not atomic", "via begin." + own + ".other(2)"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s's verdict lacks %q:\n%s", own, want, out)
			}
		}
		if forensics {
			for _, want := range []string{`"refuted":["` + own + `.outer","` + own + `.inner"]`,
				`"op":"begin.` + own + `.other(2)"`, `"op":"begin.` + own + `.inner(1)"`} {
				if !strings.Contains(out, want) {
					t.Errorf("%s's report lacks %s:\n%s", own, want, out)
				}
			}
		}
	}

	// A session's table lives in its goroutine's frame, its decoder and
	// its checker; all are gone soon after its verdict is written.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		alive := 0
		mu.Lock()
		for _, w := range tables {
			if w.Value() != nil {
				alive++
			}
		}
		mu.Unlock()
		if alive == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d finished sessions' label tables are still reachable", alive, len(tables))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
