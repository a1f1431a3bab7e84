package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sema"
	"repro/internal/serial"
	"repro/internal/trace"
)

// The redundant-event filter (Section 5, filter.go) must be invisible:
// with it on or off, both engines must report the same serializability
// verdict, the same warnings at the same operations, and the same blame.
// These tests enforce that over random feasible traces and over crafted
// loop traces built to drive every fast-path branch (anchor repeats,
// decision-cache hits, cross-thread edge memos, outside-merge reuse).

// warningKey flattens the comparable part of a Warning: position,
// increasing flag, blamed method, and the refuted label list.
func warningKey(w *Warning) string {
	blamed := ""
	if w.Blamed != nil {
		blamed = string(w.Blamed.Label)
	}
	return fmt.Sprintf("%d/%v/%s/%v", w.OpIndex, w.Increasing, blamed, w.Refuted)
}

func warningKeys(ws []*Warning) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = warningKey(w)
	}
	return out
}

// assertFilterInvisible checks the full matrix {Basic, Optimized,
// Aero} × {filter on, off} on one trace: verdicts match the offline
// oracle, and within each engine the filtered run reproduces the
// unfiltered run's warnings exactly (for Aero that is the single
// first-violation warning, position-only).
func assertFilterInvisible(t *testing.T, tr trace.Trace, ctx string) {
	t.Helper()
	want, _ := serial.Check(tr)
	for _, engine := range []Engine{Optimized, Basic, Aero} {
		off := CheckTrace(tr, Options{Engine: engine, NoFilter: true})
		on := CheckTrace(tr, Options{Engine: engine})
		if off.Filtered != 0 {
			t.Fatalf("%s engine %v: NoFilter run filtered %d events", ctx, engine, off.Filtered)
		}
		if on.Serializable != want || off.Serializable != want {
			t.Fatalf("%s engine %v: serializable on=%v off=%v oracle=%v\ntrace:\n%s",
				ctx, engine, on.Serializable, off.Serializable, want, tr)
		}
		onKeys, offKeys := warningKeys(on.Warnings), warningKeys(off.Warnings)
		if len(onKeys) != len(offKeys) {
			t.Fatalf("%s engine %v: %d warnings with filter, %d without\ntrace:\n%s",
				ctx, engine, len(onKeys), len(offKeys), tr)
		}
		for i := range onKeys {
			if onKeys[i] != offKeys[i] {
				t.Fatalf("%s engine %v warning %d: filter-on %s != filter-off %s\ntrace:\n%s",
					ctx, engine, i, onKeys[i], offKeys[i], tr)
			}
		}
	}
}

// TestFilterDifferentialMatrix runs the matrix over random feasible
// traces from the sema generator.
func TestFilterDifferentialMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(20080608))
	for i := 0; i < 300; i++ {
		tr := sema.RandomTrace(rng, sema.DefaultGenConfig())
		assertFilterInvisible(t, tr, fmt.Sprintf("iter %d", i))
	}
}

// loopTraces are crafted streams that exercise the fast-path branches
// far more densely than random traces do: in-transaction read/write
// loops (anchor repeats and the per-variable decision cache),
// cross-thread conflicting loops (edge-memo refreshes), outside-of-
// transaction polling (merge reuse), and loops interrupted by lock
// operations, new transactions, and conflicting writers (cache
// invalidation). Several end in genuine violations so blame is
// compared under heavy prior filtering.
func loopTraces() map[string]trace.Trace {
	const (
		t1, t2 = trace.Tid(1), trace.Tid(2)
		x, y   = trace.Var(0), trace.Var(1)
		m      = trace.Lock(0)
	)
	out := map[string]trace.Trace{}

	var rdLoop trace.Trace
	rdLoop = append(rdLoop, trace.Wr(t2, x))
	rdLoop = append(rdLoop, trace.Beg(t1, "loop"))
	for i := 0; i < 20; i++ {
		rdLoop = append(rdLoop, trace.Rd(t1, x))
	}
	rdLoop = append(rdLoop, trace.Fin(t1))
	out["txn-read-loop"] = rdLoop

	var wrLoop trace.Trace
	wrLoop = append(wrLoop, trace.Rd(t2, x))
	wrLoop = append(wrLoop, trace.Beg(t1, "loop"))
	for i := 0; i < 20; i++ {
		wrLoop = append(wrLoop, trace.Wr(t1, x))
	}
	wrLoop = append(wrLoop, trace.Fin(t1))
	out["txn-write-loop"] = wrLoop

	var sweep trace.Trace
	sweep = append(sweep, trace.Beg(t1, "sweep"))
	for round := 0; round < 6; round++ {
		for _, v := range []trace.Var{x, y, 2, 3} {
			sweep = append(sweep, trace.Rd(t1, v), trace.Wr(t1, v))
		}
	}
	sweep = append(sweep, trace.Fin(t1))
	out["txn-sweep-loop"] = sweep

	var outside trace.Trace
	outside = append(outside, trace.Wr(t2, x))
	for i := 0; i < 20; i++ {
		outside = append(outside, trace.Rd(t1, x))
	}
	outside = append(outside, trace.Acq(t1, m), trace.Rel(t1, m))
	for i := 0; i < 10; i++ {
		outside = append(outside, trace.Wr(t1, y))
	}
	out["outside-poll-loop"] = outside

	// Cache invalidation: a conflicting writer lands mid-loop, so the
	// previously validated decision must be re-checked, the new edge
	// inserted, and filtering resumed afterwards.
	var interrupt trace.Trace
	interrupt = append(interrupt, trace.Beg(t1, "loop"))
	for i := 0; i < 8; i++ {
		interrupt = append(interrupt, trace.Rd(t1, x))
	}
	interrupt = append(interrupt, trace.Wr(t2, x))
	for i := 0; i < 8; i++ {
		interrupt = append(interrupt, trace.Rd(t1, x))
	}
	interrupt = append(interrupt, trace.Fin(t1))
	out["mid-loop-writer"] = interrupt

	// A filtered loop followed by a genuine violation: t1's transaction
	// reads x before and after t2's two conflicting writes — the classic
	// non-serializable diamond — with redundant loops padding both sides.
	var viol trace.Trace
	viol = append(viol, trace.Beg(t1, "victim"))
	for i := 0; i < 10; i++ {
		viol = append(viol, trace.Rd(t1, x))
	}
	viol = append(viol, trace.Wr(t2, x))
	for i := 0; i < 10; i++ {
		viol = append(viol, trace.Wr(t1, y))
	}
	viol = append(viol, trace.Rd(t1, x))
	viol = append(viol, trace.Fin(t1))
	out["loop-then-violation"] = viol

	// Lock ops inside the loop: acquires are only filterable outside
	// transactions, so this drives the kind checks on both paths.
	var locks trace.Trace
	locks = append(locks, trace.Acq(t2, m), trace.Rel(t2, m)) // U(m) points at t2
	for i := 0; i < 6; i++ {
		locks = append(locks, trace.Acq(t1, m), trace.Rd(t1, x), trace.Rel(t1, m))
	}
	out["outside-lock-loop"] = locks

	return out
}

func TestFilterDifferentialLoopTraces(t *testing.T) {
	for name, tr := range loopTraces() {
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("%s: crafted trace ill-formed: %v", name, err)
		}
		assertFilterInvisible(t, tr, name)
	}
}

// TestFilteredAccessAddsNothing pins the operational meaning of a filter
// hit: a redundant access changes neither the node count nor the edge
// count of H — the event is discarded before any graph work.
func TestFilteredAccessAddsNothing(t *testing.T) {
	const t1 = trace.Tid(1)
	const x = trace.Var(0)
	c := New(Options{})
	c.Step(trace.Beg(t1, "m"))
	c.Step(trace.Rd(t1, x)) // first read: performs graph work
	before := c.Snapshot().Stats
	if got := c.Snapshot().Filtered; got != 0 {
		t.Fatalf("unexpected filtering before the repeat: %d", got)
	}
	c.Step(trace.Rd(t1, x)) // repeat: must be discarded
	after := c.Snapshot().Stats
	if got := c.Snapshot().Filtered; got != 1 {
		t.Fatalf("repeat read not filtered: Filtered=%d", got)
	}
	if after.Allocated != before.Allocated {
		t.Fatalf("filtered access allocated a node: %d -> %d", before.Allocated, after.Allocated)
	}
	if after.Edges != before.Edges {
		t.Fatalf("filtered access added an edge: %d -> %d", before.Edges, after.Edges)
	}

	// Same check through the decision cache: a third repeat hits the
	// memoized validation and must be equally invisible.
	c.Step(trace.Rd(t1, x))
	if got := c.Snapshot().Filtered; got != 2 {
		t.Fatalf("cached repeat not filtered: Filtered=%d", got)
	}
	final := c.Snapshot().Stats
	if final.Allocated != before.Allocated || final.Edges != before.Edges {
		t.Fatalf("cached filtered access changed the graph: %+v -> %+v", before, final)
	}
}

// TestFilterLoopTracesFilterSubstantially guards against the filter
// silently degrading: the crafted loop traces must keep filtering a
// large share of their operations.
func TestFilterLoopTracesFilterSubstantially(t *testing.T) {
	for _, name := range []string{"txn-read-loop", "txn-write-loop", "txn-sweep-loop", "outside-poll-loop"} {
		tr := loopTraces()[name]
		r := CheckTrace(tr, Options{})
		if pct := float64(r.Filtered) / float64(len(tr)); pct < 0.5 {
			t.Errorf("%s: filtered only %d of %d ops (%.0f%%), want >= 50%%",
				name, r.Filtered, len(tr), 100*pct)
		}
	}
}
