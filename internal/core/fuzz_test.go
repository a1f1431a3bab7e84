package core

import (
	"bytes"
	"testing"

	"repro/internal/serial"
	"repro/internal/span"
	"repro/internal/trace"
)

// decodeOps turns fuzz bytes into a well-formed trace: each byte selects
// an action for a small thread/var/lock universe, with begin/end and
// acquire/release balanced by construction.
func decodeOps(data []byte) trace.Trace {
	var tr trace.Trace
	depth := map[trace.Tid]int{}
	held := map[trace.Tid][]trace.Lock{}
	lockBusy := map[trace.Lock]bool{}
	for _, b := range data {
		t := trace.Tid(b%3) + 1
		kind := (b >> 2) % 6
		obj := int32(b>>5) % 2
		switch kind {
		case 0:
			tr = append(tr, trace.Rd(t, trace.Var(obj)))
		case 1:
			tr = append(tr, trace.Wr(t, trace.Var(obj)))
		case 2:
			m := trace.Lock(obj)
			if !lockBusy[m] {
				lockBusy[m] = true
				held[t] = append(held[t], m)
				tr = append(tr, trace.Acq(t, m))
			}
		case 3:
			if hs := held[t]; len(hs) > 0 {
				m := hs[len(hs)-1]
				held[t] = hs[:len(hs)-1]
				lockBusy[m] = false
				tr = append(tr, trace.Rel(t, m))
			}
		case 4:
			depth[t]++
			tr = append(tr, trace.Beg(t, trace.Label("blk")))
		case 5:
			if depth[t] > 0 {
				depth[t]--
				tr = append(tr, trace.Fin(t))
			}
		}
	}
	return tr
}

// FuzzCheckerMatchesOracle drives the optimized engine with arbitrary
// well-formed traces and cross-checks the offline oracle, plus the
// invariant battery: no panics, GC empties the graph when quiet, engines
// agree. Inputs of odd length run every engine with a span buffer
// attached, and may be twice as long, so that the checkers leave
// their exact prefix and sample: tracing must not move a verdict.
func FuzzCheckerMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte("atomicity"))
	f.Add([]byte{16, 0, 1, 17, 20, 1, 0, 21})
	f.Add(bytes.Repeat([]byte{16, 0, 1, 17, 20, 1, 0, 21, 5}, 23)) // odd length: traced, past the exact prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		var sb *span.Buf
		limit := 64
		if len(data)%2 == 1 {
			sb = span.New().Buffer("fuzz")
			limit = 2 * sampleStride
		}
		if len(data) > limit {
			data = data[:limit]
		}
		tr := decodeOps(data)
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("decoder produced ill-formed trace: %v", err)
		}
		want, _ := serial.Check(tr)
		opt := CheckTrace(tr, Options{Spans: sb})
		if opt.Serializable != want {
			t.Fatalf("optimized=%v oracle=%v\n%s", opt.Serializable, want, tr)
		}
		bas := CheckTrace(tr, Options{Engine: Basic, Spans: sb})
		if bas.Serializable != want {
			t.Fatalf("basic=%v oracle=%v\n%s", bas.Serializable, want, tr)
		}
		noMerge := CheckTrace(tr, Options{NoMerge: true, Spans: sb})
		if noMerge.Serializable != want {
			t.Fatalf("no-merge=%v oracle=%v\n%s", noMerge.Serializable, want, tr)
		}
		aero := CheckTrace(tr, Options{Engine: Aero, Spans: sb})
		if aero.Serializable != want {
			t.Fatalf("aero=%v oracle=%v\n%s", aero.Serializable, want, tr)
		}
		if !want {
			if len(aero.Warnings) != 1 {
				t.Fatalf("aero reported %d warnings, want 1\n%s", len(aero.Warnings), tr)
			}
			first := CheckTrace(tr, Options{FirstOnly: true, Spans: sb})
			if aero.Warnings[0].OpIndex != first.Warnings[0].OpIndex {
				t.Fatalf("aero first warning at op %d, optimized at op %d\n%s",
					aero.Warnings[0].OpIndex, first.Warnings[0].OpIndex, tr)
			}
		}
	})
}
