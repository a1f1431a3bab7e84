package graph

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

var anyOp = trace.Rd(1, 0)

func TestStepPacking(t *testing.T) {
	s := pack(513, 0x0000ABCDEF012345)
	if s.ID() != 513 {
		t.Errorf("ID = %d, want 513", s.ID())
	}
	if s.Time() != 0x0000ABCDEF012345 {
		t.Errorf("Time = %x", s.Time())
	}
	if None.String() != "⊥" {
		t.Errorf("None renders as %q", None.String())
	}
}

func TestNewNodeAndTick(t *testing.T) {
	g := New()
	s := g.NewNode(true, "meta")
	if g.Resolve(s) != s {
		t.Fatal("fresh step should resolve to itself")
	}
	o := g.NewNode(true, nil)
	g.AddEdge(s, o, anyOp, nil)
	if cyc := g.AddEdge(o, s, anyOp, nil); cyc == nil || cyc.Edges[0].FromData != "meta" {
		t.Fatal("data lost")
	}
	s2 := g.Tick(s)
	if s2.ID() != s.ID() || s2.Time() != s.Time()+1 {
		t.Fatalf("Tick(%v) = %v", s, s2)
	}
	if g.Resolve(s) != s {
		t.Fatal("older step of live node must stay resolvable")
	}
	if g.Tick(None) != None {
		t.Fatal("Tick(⊥) must be ⊥")
	}
}

func TestCollectOnFinish(t *testing.T) {
	g := New()
	s := g.NewNode(true, nil)
	if g.Alive() != 1 {
		t.Fatal("alive != 1")
	}
	g.Finish(s)
	if g.Alive() != 0 {
		t.Fatal("finished node with no incoming edges must be collected")
	}
	if g.Resolve(s) != None {
		t.Fatal("stale step must resolve to ⊥")
	}
}

func TestIncomingEdgePinsNode(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	if c := g.AddEdge(a, b, anyOp, nil); c != nil {
		t.Fatal("unexpected cycle")
	}
	g.Finish(b)
	if g.Alive() != 2 {
		t.Fatal("b has an incoming edge and must stay alive")
	}
	g.Finish(a)
	// a collected (no incoming), cascade removes a→b, then b collected.
	if g.Alive() != 0 {
		t.Fatalf("cascade collection failed: %d alive", g.Alive())
	}
}

func TestRecycledNodeInvalidatesOldSteps(t *testing.T) {
	g := New()
	s := g.NewNode(true, nil)
	id := s.ID()
	g.Finish(s) // collected, id freed
	s2 := g.NewNode(true, nil)
	if s2.ID() != id {
		t.Skip("allocator did not recycle; packing property untestable here")
	}
	if g.Resolve(s) != None {
		t.Fatal("step from previous incarnation must read as ⊥")
	}
	if g.Resolve(s2) != s2 {
		t.Fatal("new incarnation's step must be live")
	}
}

func TestCycleDetectionAndRejection(t *testing.T) {
	g := New()
	a := g.NewNode(true, "A")
	b := g.NewNode(true, "B")
	if c := g.AddEdge(a, b, anyOp, nil); c != nil {
		t.Fatal("a→b should not cycle")
	}
	cyc := g.AddEdge(b, a, anyOp, nil)
	if cyc == nil {
		t.Fatal("b→a must close a cycle")
	}
	if cyc.Completer() != a.ID() {
		t.Errorf("completer = %d, want %d", cyc.Completer(), a.ID())
	}
	if cyc.CompleterData() != "A" {
		t.Errorf("completer data = %v", cyc.CompleterData())
	}
	if len(cyc.Edges) != 2 {
		t.Errorf("cycle length = %d, want 2", len(cyc.Edges))
	}
	// The rejected edge must not have been added: graph stays acyclic and
	// a second attempt reports the same cycle.
	if g.AddEdge(b, a, anyOp, nil) == nil {
		t.Fatal("graph should still contain a→b only")
	}
	if g.Stats().Edges != 1 {
		t.Errorf("edges = %d, want 1", g.Stats().Edges)
	}
}

func TestSelfAndBottomEdgesFiltered(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	a2 := g.Tick(a)
	if c := g.AddEdge(a, a2, anyOp, nil); c != nil {
		t.Fatal("self-edge must be filtered, not reported")
	}
	if c := g.AddEdge(None, a, anyOp, nil); c != nil {
		t.Fatal("⊥ edge must be filtered")
	}
	if c := g.AddEdge(a, None, anyOp, nil); c != nil {
		t.Fatal("⊥ edge must be filtered")
	}
	if g.Stats().Edges != 0 {
		t.Errorf("edges = %d, want 0", g.Stats().Edges)
	}
}

func TestEdgeTimestampReplacement(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	g.AddEdge(a, b, anyOp, nil)
	a2 := g.Tick(a)
	b2 := g.Tick(b)
	g.AddEdge(a2, b2, anyOp, nil)
	if g.Stats().Edges != 1 {
		t.Fatalf("duplicate node-pair edge stored: %d", g.Stats().Edges)
	}
	// Close a cycle to observe the stored timestamps.
	cyc := g.AddEdge(b2, a2, anyOp, nil)
	if cyc == nil {
		t.Fatal("expected cycle")
	}
	e := cyc.Edges[0] // a→b edge on the path
	if e.TailTime != a2.Time() || e.HeadTime != b2.Time() {
		t.Errorf("edge timestamps not replaced: %+v", e)
	}
}

func TestHappensBeforeOrSame(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	c := g.NewNode(true, nil)
	g.AddEdge(a, b, anyOp, nil)
	g.AddEdge(b, c, anyOp, nil)
	if !g.HappensBeforeOrSame(a, c) {
		t.Error("a ⇒* c must hold transitively")
	}
	if !g.HappensBeforeOrSame(a, g.Tick(a)) {
		t.Error("same node must be ⊑")
	}
	if g.HappensBeforeOrSame(c, a) {
		t.Error("c ⇒* a must not hold")
	}
	if g.HappensBeforeOrSame(None, a) || g.HappensBeforeOrSame(a, None) {
		t.Error("⊥ never happens-before")
	}
}

func TestMergeAllBottom(t *testing.T) {
	g := New()
	if s, _ := g.Merge([]Step{None, None}, anyOp, nil, nil); s != None {
		t.Fatalf("merge of ⊥s = %v, want ⊥", s)
	}
	if g.Stats().Allocated != 0 {
		t.Fatal("merge of ⊥s must not allocate")
	}
}

func TestMergeReusesMaximalFinishedNode(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	g.AddEdge(a, b, anyOp, nil)
	g.Finish(b) // b stays alive? no incoming? a→b gives b one incoming.
	s, _ := g.Merge([]Step{b, a}, anyOp, nil, nil)
	if s.ID() != b.ID() {
		t.Fatalf("merge should reuse b (happens-after a); got %v", s)
	}
	if g.Stats().Merged != 1 {
		t.Error("merge statistic not recorded")
	}
}

func TestMergeRefusesActiveNode(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil) // still active
	s, _ := g.Merge([]Step{a}, anyOp, nil, nil)
	if s == None || s.ID() == a.ID() {
		t.Fatalf("merge must allocate rather than reuse active node; got %v", s)
	}
	if !g.HappensBeforeOrSame(a, s) {
		t.Error("fresh merge node must happen-after its predecessors")
	}
}

func TestMergeAllocatesOnIncomparable(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	g.Finish(a)
	g.Finish(b)
	// Pin both with a dummy successor so they stay alive.
	// (Finished with no incoming they'd be collected.)
	// Recreate: allocate first, edges after finish would be dropped. So
	// build pinned structure directly:
	a = g.NewNode(true, nil)
	b = g.NewNode(true, nil)
	s, _ := g.Merge([]Step{a, b}, anyOp, "u", nil)
	if s == None {
		t.Fatal("merge of incomparable steps must allocate")
	}
	if !g.HappensBeforeOrSame(a, s) || !g.HappensBeforeOrSame(b, s) {
		t.Error("merge node must happen-after all predecessors")
	}
	if cyc := g.AddEdge(s, a, anyOp, nil); cyc == nil || cyc.Edges[0].ToData != "u" {
		t.Error("data not attached to fresh merge node")
	}
}

func TestStatsMaxAlive(t *testing.T) {
	g := New()
	var steps []Step
	for i := 0; i < 10; i++ {
		steps = append(steps, g.NewNode(true, nil))
	}
	for _, s := range steps {
		g.Finish(s)
	}
	st := g.Stats()
	if st.MaxAlive != 10 || st.Alive != 0 || st.Allocated != 10 || st.Collected != 10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNoGCKeepsNodes(t *testing.T) {
	g := New()
	g.SetGC(false)
	s := g.NewNode(true, nil)
	g.Finish(s)
	if g.Alive() != 1 {
		t.Fatal("GC disabled: node must persist")
	}
	if g.Resolve(s) != s {
		t.Fatal("step must stay resolvable without GC")
	}
}

func TestDeepChainCollection(t *testing.T) {
	// A long chain a1→a2→...→aN, all finished in order: collecting the
	// head cascades down the whole chain.
	g := New()
	const n = 1000
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = g.NewNode(true, nil)
		if i > 0 {
			g.AddEdge(steps[i-1], steps[i], anyOp, nil)
		}
	}
	for i := n - 1; i >= 1; i-- {
		g.Finish(steps[i]) // pinned by incoming edge; stays alive
	}
	if g.Alive() != n {
		t.Fatalf("alive = %d, want %d", g.Alive(), n)
	}
	g.Finish(steps[0])
	if g.Alive() != 0 {
		t.Fatalf("cascade failed: %d alive", g.Alive())
	}
}

func TestDebugDot(t *testing.T) {
	g := New()
	a := g.NewNode(true, "A")
	b := g.NewNode(false, "B")
	g.AddEdge(a, b, trace.Rd(2, 7), nil)
	out := g.DebugDot(trace.ProcessLabels())
	for _, want := range []string{"digraph hbgraph", `label="A"`, `label="B"`, "rd(2,x7)", "style=bold"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
