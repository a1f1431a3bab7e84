package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sema"
	"repro/internal/trace"
)

// TestNodeRecyclingStress runs far more transactions than the node pool
// would hold without GC, forcing heavy id recycling, and checks the
// verdict still matches the offline behaviour (serial trace → quiet).
func TestNodeRecyclingStress(t *testing.T) {
	x := trace.Var(0)
	c := New(Options{})
	for i := 0; i < 200_000; i++ {
		tid := trace.Tid(i%2 + 1)
		c.Step(trace.Beg(tid, "m"))
		c.Step(trace.Rd(tid, x))
		c.Step(trace.Wr(tid, x))
		c.Step(trace.Fin(tid))
	}
	if len(c.Warnings()) != 0 {
		t.Fatalf("serial transaction stream produced %d warnings", len(c.Warnings()))
	}
	st := c.Snapshot().Stats
	if st.Allocated < 100_000 {
		t.Fatalf("allocated = %d; recycling not exercised", st.Allocated)
	}
	if st.MaxAlive > 8 {
		t.Fatalf("maxAlive = %d; GC failed to collect", st.MaxAlive)
	}
}

// TestRecyclingKeepsPrecision interleaves the serial churn with a real
// violation late in the run: stale weak references from recycled nodes
// must neither hide it nor corrupt it.
func TestRecyclingKeepsPrecision(t *testing.T) {
	x, y := trace.Var(0), trace.Var(1)
	c := New(Options{})
	for i := 0; i < 50_000; i++ {
		tid := trace.Tid(i%2 + 1)
		c.Step(trace.Beg(tid, "churn"))
		c.Step(trace.Wr(tid, x))
		c.Step(trace.Fin(tid))
	}
	// The classic RMW violation on a different variable.
	c.Step(trace.Beg(1, "late"))
	c.Step(trace.Rd(1, y))
	c.Step(trace.Wr(2, y))
	w := c.Step(trace.Wr(1, y))
	c.Step(trace.Fin(1))
	if w == nil || w.Method() != "late" {
		t.Fatalf("late violation missed or misblamed: %v", w)
	}
}

// TestDeepNesting pushes a deep stack of atomic blocks and checks only
// the blocks containing the cycle's root operation are refuted.
func TestDeepNesting(t *testing.T) {
	x := trace.Var(0)
	c := New(Options{})
	const depth = 40
	for i := 0; i < depth; i++ {
		c.Step(trace.Beg(1, trace.Label(fmt.Sprintf("lvl%d", i))))
	}
	c.Step(trace.Rd(1, x)) // root op: inside all 40
	c.Step(trace.Wr(2, x))
	c.Step(trace.Beg(1, "inner")) // opened after the root op
	w := c.Step(trace.Wr(1, x))
	if w == nil {
		t.Fatal("violation missed")
	}
	if len(w.Refuted) != depth {
		t.Fatalf("refuted %d blocks, want %d (inner must be spared)", len(w.Refuted), depth)
	}
	if w.Refuted[0] != "lvl0" || w.Method() != "lvl0" {
		t.Fatalf("outermost block must be blamed: %v", w.Refuted[:2])
	}
	for _, l := range w.Refuted {
		if l == "inner" {
			t.Fatal("inner block opened after the root op must not be refuted")
		}
	}
}

// TestLockOnlyCycle builds a cycle through lock operations alone: two
// transactions that each release a lock the other then acquires, in both
// directions.
func TestLockOnlyCycle(t *testing.T) {
	m1, m2 := trace.Lock(0), trace.Lock(1)
	tr := trace.Trace{
		trace.Beg(1, "A"),
		trace.Acq(1, m1), trace.Rel(1, m1), // A uses m1 first
		trace.Beg(2, "B"),
		trace.Acq(2, m1), trace.Rel(2, m1), // A ⇒ B on m1
		trace.Acq(2, m2), trace.Rel(2, m2), // B uses m2
		trace.Fin(2),
		trace.Acq(1, m2), trace.Rel(1, m2), // B ⇒ A on m2: cycle
		trace.Fin(1),
	}
	res := CheckTrace(tr, Options{})
	if res.Serializable {
		t.Fatal("lock-ordered cycle missed")
	}
	if w := res.Warnings[0]; w.Op.Kind != trace.Acquire {
		t.Fatalf("cycle should close at the acquire, closed at %v", w.Op)
	}
}

// TestMaxWarnings bounds warning accumulation.
func TestMaxWarnings(t *testing.T) {
	x := trace.Var(0)
	c := New(Options{MaxWarnings: 5})
	for i := 0; i < 100; i++ {
		c.Step(trace.Beg(1, "m"))
		c.Step(trace.Rd(1, x))
		c.Step(trace.Wr(2, x))
		c.Step(trace.Wr(1, x))
		c.Step(trace.Fin(1))
	}
	if got := len(c.Warnings()); got != 5 {
		t.Fatalf("warnings = %d, want capped at 5", got)
	}
	if got := c.Snapshot().Warnings; got != 100 {
		t.Fatalf("snapshot counts %d warnings, want all 100: the cap bounds what is kept, not what is counted", got)
	}
}

// TestFirstOnlyStops verifies FirstOnly freezes the analysis after the
// first violation (used by the differential prefix tests).
func TestFirstOnlyStops(t *testing.T) {
	x := trace.Var(0)
	c := New(Options{FirstOnly: true})
	c.Step(trace.Beg(1, "m"))
	c.Step(trace.Rd(1, x))
	c.Step(trace.Wr(2, x))
	if w := c.Step(trace.Wr(1, x)); w == nil {
		t.Fatal("violation missed")
	}
	before := c.Snapshot().Stats
	c.Step(trace.Fin(1))
	c.Step(trace.Wr(2, x))
	if c.Snapshot().Stats != before {
		t.Fatal("FirstOnly checker kept mutating state")
	}
	if len(c.Warnings()) != 1 {
		t.Fatal("FirstOnly must record exactly one warning")
	}
}

// TestManyThreadsManyVars widens the state tables (dense slices must
// grow correctly for high thread and variable ids).
func TestManyThreadsManyVars(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := New(Options{})
	for i := 0; i < 20_000; i++ {
		tid := trace.Tid(rng.Intn(64) + 1)
		x := trace.Var(rng.Intn(5000))
		switch rng.Intn(2) {
		case 0:
			c.Step(trace.Rd(tid, x))
		case 1:
			c.Step(trace.Wr(tid, x))
		}
	}
	// Unary operations alone can never form a transactional cycle.
	if len(c.Warnings()) != 0 {
		t.Fatalf("unary-only stream produced %d warnings", len(c.Warnings()))
	}
}

// TestForkJoinTokensHitSparseTables drives the high-offset synthetic
// token variables through the sparse overflow path.
func TestForkJoinTokensHitSparseTables(t *testing.T) {
	var tr trace.Trace
	for u := trace.Tid(2); u < 40; u++ {
		tr = append(tr, trace.ForkOp(1, u), trace.Wr(u, 0), trace.JoinOp(1, u))
	}
	res := CheckTrace(tr, Options{})
	if !res.Serializable {
		t.Fatal("fork/join chain must be serializable")
	}
}

// TestEngineEquivalenceOnLongerTraces runs the basic and optimized
// engines over larger random traces than the default differential test.
func TestEngineEquivalenceOnLongerTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := sema.GenConfig{Threads: 5, OpsPerThd: 60, Vars: 6, Locks: 3, PAtomic: 0.5, PLock: 0.4}
	for i := 0; i < 40; i++ {
		tr := sema.RandomTrace(rng, cfg)
		opt := CheckTrace(tr, Options{})
		bas := CheckTrace(tr, Options{Engine: Basic})
		if opt.Serializable != bas.Serializable {
			t.Fatalf("iter %d: engines disagree\n%s", i, tr)
		}
	}
}
