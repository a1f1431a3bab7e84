package core

import (
	"testing"

	"repro/internal/trace"
)

// TestAeroFreezeOnTransactionEnd exercises the subscription refcount
// directly: reader transactions chained off a still-active writer stay
// growable (they can yet learn new happens-before facts), and the
// moment the writer ends, the freeze cascade collapses the whole chain
// and drops every subscriber list.
func TestAeroFreezeOnTransactionEnd(t *testing.T) {
	c := New(Options{Engine: Aero}).(*aeroChecker)
	step := func(ops ...trace.Op) {
		for _, op := range ops {
			if w := c.Step(op); w != nil {
				t.Fatalf("unexpected warning at %v: %v", op, w)
			}
		}
	}

	step(trace.Beg(2, "writer"), trace.Wr(2, 9))
	for i := 0; i < 8; i++ {
		step(trace.Beg(1, "reader"), trace.Rd(1, 9), trace.Fin(1))
	}

	last := c.l.get(1) // the most recent (ended) reader transaction
	if last == nil {
		t.Fatal("no reader object")
	}
	if last.active {
		t.Fatal("reader transaction still active after end")
	}
	if last.ups == 0 {
		t.Fatal("reader chained off an active writer should still be growable")
	}

	// Writer ends with no upstream of its own: it freezes, its
	// subscriber list is dropped, and the refcount cascade frees the
	// entire reader chain behind it.
	step(trace.Fin(2))
	if last.ups != 0 {
		t.Fatalf("reader still holds %d upstream subscriptions after the writer ended", last.ups)
	}
	if last.subs != nil || last.subSet != nil {
		t.Fatalf("frozen reader keeps a subscriber list: %d entries", len(last.subs))
	}
	if last.mayGrow() {
		t.Fatal("frozen reader reports mayGrow")
	}
}
