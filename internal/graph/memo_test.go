package graph

import "testing"

// Repeated insertion of the same (src,dst) pair must be served by the
// last-edge memo: timestamps are ⊕-replaced, no new edge or ancestor
// work happens, and Stats.FilteredEdges counts the hits.
func TestEdgeMemoDedupesRepeatedPair(t *testing.T) {
	g := New()
	a := g.NewNode(true, "a")
	b := g.NewNode(true, "b")

	if c := g.AddEdge(a, b, anyOp, nil); c != nil {
		t.Fatal("unexpected cycle")
	}
	if g.Stats().FilteredEdges != 0 {
		t.Fatalf("first insertion filtered: %+v", g.Stats())
	}
	checksBefore := g.Stats().CycleChecks
	for i := 0; i < 5; i++ {
		a2, b2 := g.Tick(a), g.Tick(b)
		if c := g.AddEdge(a2, b2, anyOp, nil); c != nil {
			t.Fatal("unexpected cycle")
		}
		a, b = a2, b2
	}
	st := g.Stats()
	if st.FilteredEdges != 5 {
		t.Fatalf("FilteredEdges = %d, want 5", st.FilteredEdges)
	}
	if st.Edges != 1 {
		t.Fatalf("Edges = %d, want 1 (⊕ must replace, not append)", st.Edges)
	}
	if st.CycleChecks != checksBefore {
		t.Fatalf("memo hits ran %d extra cycle checks", st.CycleChecks-checksBefore)
	}
	// The replaced timestamps must be the latest pair, exactly as the
	// slow ⊕ path would leave them.
	nd := &g.nodes[a.ID()]
	if nd.out[0].tailTime != a.Time() || nd.out[0].headTime != b.Time() {
		t.Fatalf("edge times (%d,%d), want (%d,%d)",
			nd.out[0].tailTime, nd.out[0].headTime, a.Time(), b.Time())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The memo tracks only the most recent pair: alternating destinations
// falls back to the edge-table scan and stays correct.
func TestEdgeMemoAlternatingDestinations(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	c := g.NewNode(true, nil)
	for i := 0; i < 4; i++ {
		a = g.Tick(a)
		if cy := g.AddEdge(a, g.Tick(b), anyOp, nil); cy != nil {
			t.Fatal("cycle")
		}
		a = g.Tick(a)
		if cy := g.AddEdge(a, g.Tick(c), anyOp, nil); cy != nil {
			t.Fatal("cycle")
		}
	}
	st := g.Stats()
	if st.Edges != 2 {
		t.Fatalf("Edges = %d, want 2", st.Edges)
	}
	if st.FilteredEdges != 0 {
		t.Fatalf("FilteredEdges = %d, want 0 (memo never matches)", st.FilteredEdges)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A recycled node must not inherit the previous incarnation's memo or
// lastInHead watermark.
func TestMemoAndWatermarkResetOnRecycle(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	g.AddEdge(a, b, anyOp, nil)
	g.Finish(a) // a has no in-edges: collected, cascading b's in-count to 0
	g.Finish(b)
	if g.Alive() != 0 {
		t.Fatalf("alive = %d, want 0", g.Alive())
	}
	// Recycle both slots; the fresh incarnations start with no memo and
	// a zero watermark even though timestamps keep increasing.
	c := g.NewNode(true, nil)
	if !g.NoNewerIncoming(c) {
		t.Fatal("fresh node must report no newer incoming edge")
	}
	d := g.NewNode(true, nil)
	if cy := g.AddEdge(c, d, anyOp, nil); cy != nil {
		t.Fatal("cycle")
	}
	if g.Stats().FilteredEdges != 0 {
		t.Fatal("stale memo survived recycling")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoNewerIncomingTracksEdgeHeads(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	if !g.NoNewerIncoming(b) {
		t.Fatal("no edges yet: must hold")
	}
	b2 := g.Tick(b)
	g.AddEdge(a, b2, anyOp, nil) // head at b2.Time()
	if g.NoNewerIncoming(b) {
		t.Fatal("edge head is newer than the original step")
	}
	if !g.NoNewerIncoming(b2) {
		t.Fatal("step at the head itself has no newer incoming edge")
	}
	if g.NoNewerIncoming(None) {
		t.Fatal("⊥ must not satisfy NoNewerIncoming")
	}
}

func TestReusable(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	if g.Reusable(a) {
		t.Fatal("active node is not reusable")
	}
	b := g.NewNode(true, nil)
	g.AddEdge(a, b, anyOp, nil) // pin a... (edge is a→b: pins b)
	g.Finish(a)
	// a had no incoming edges, so it was collected on Finish.
	if g.Reusable(a) {
		t.Fatal("collected step is not reusable")
	}
	c := g.NewNode(false, nil)
	g.AddEdge(b, c, anyOp, nil)
	g.Finish(c)
	// c is finished but pinned by b's edge: live and inactive.
	if !g.Reusable(c) {
		t.Fatal("live finished node must be reusable")
	}
	if g.Reusable(None) {
		t.Fatal("⊥ is not reusable")
	}
}
