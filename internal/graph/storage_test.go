package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/layout"
	"repro/internal/trace"
)

// These tests hold the node-storage discipline: a collected node takes
// its out-edge and ancestor arrays into the pool, emptied, and findPath
// walks on the graph's own scratch. Nothing of either may be visible
// from outside — not in a Cycle handed to the caller, not in what a
// recycled node knows.

// sameCycleEdges compares two cycles edge for edge, provenance by value:
// no two cycles share an EdgeProv, so the pointers never match.
func sameCycleEdges(a, b []CycleEdge) bool {
	return slices.EqualFunc(a, b, func(x, y CycleEdge) bool {
		px, py := x.Prov, y.Prov
		x.Prov, y.Prov = nil, nil
		return x == y && (px == nil) == (py == nil) && (px == nil || *px == *py)
	})
}

// cloneCycleEdges copies a cycle's edges and the provenance they point at.
func cloneCycleEdges(edges []CycleEdge) []CycleEdge {
	out := slices.Clone(edges)
	for i := range out {
		if p := out[i].Prov; p != nil {
			cp := *p
			out[i].Prov = &cp
		}
	}
	return out
}

// TestCycleEdgeSize: provenance is 56 bytes that only a forensics report
// reads; an edge on a cycle carries a pointer to it, not the bytes.
func TestCycleEdgeSize(t *testing.T) {
	if n := unsafe.Sizeof(CycleEdge{}); n > 96 {
		t.Errorf("CycleEdge is %d bytes, want at most 96", n)
	}
}

// TestReturnedCycleIsNotScratch: a *Cycle from AddEdge is the caller's.
// Later cycles of other lengths, CheckInvariants (which runs findPath for
// every edge) and the recycling of every node on it leave it as it was.
func TestReturnedCycleIsNotScratch(t *testing.T) {
	g := New()
	op := func(i int) trace.Op { return trace.Wr(trace.Tid(i), trace.Var(i)) }
	a, b, c := g.NewNode(true, "a"), g.NewNode(true, "b"), g.NewNode(true, "c")
	g.AddEdge(a, b, op(1), nil)
	g.AddEdge(b, c, op(2), nil)
	type held struct {
		got  *Cycle
		want []CycleEdge
	}
	var cycles []held
	hold := func(cyc *Cycle, edges int) {
		t.Helper()
		if cyc == nil || len(cyc.Edges) != edges {
			t.Fatalf("cycle %v, want one of %d edges", cyc, edges)
		}
		cycles = append(cycles, held{cyc, cloneCycleEdges(cyc.Edges)})
	}
	hold(g.AddEdge(c, a, op(3), &EdgeProv{HeadIdx: 7, TailIdx: 3, HasTail: true}), 3) // a→b→c, then c→a
	d := g.NewNode(true, "d")
	g.AddEdge(c, d, op(4), nil)
	hold(g.AddEdge(d, a, op(5), nil), 4) // longer than the first: the whole scratch is rewritten
	hold(g.AddEdge(b, a, op(6), nil), 2) // shorter: its head is rewritten
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Step{a, b, c, d} {
		g.Finish(s)
	}
	if g.Alive() != 0 {
		t.Fatalf("%d nodes alive, want all four collected", g.Alive())
	}
	// The same ids, new transactions, another cycle through them.
	x, y := g.NewNode(true, "x"), g.NewNode(true, "y")
	g.AddEdge(x, y, op(8), nil)
	hold(g.AddEdge(y, x, op(9), nil), 2)
	if g.Stats().Recycled != 2 {
		t.Fatalf("recycled %d ids, want 2", g.Stats().Recycled)
	}
	for i, h := range cycles {
		if !sameCycleEdges(h.got.Edges, h.want) {
			t.Errorf("cycle %d changed after it was returned:\n got %v\nwant %v", i, h.got.Edges, h.want)
		}
	}
	if p := cycles[0].got.Edges[2].Prov; p == nil || p.HeadIdx != 7 || !p.HasTail {
		t.Errorf("rejected edge lost its provenance: %+v", p)
	}
	if p := cycles[0].got.Edges[0].Prov; p != nil {
		t.Errorf("an edge inserted without provenance reports some: %+v", p)
	}
}

// dropPooledArrays makes g behave as the graph did before nodes kept
// their storage: whatever sits in the pool holds no arrays, so the next
// incarnation of every id starts on fresh ones.
func (g *Graph) dropPooledArrays() {
	for _, id := range g.free {
		g.nodes[id].out, g.nodes[id].prov, g.nodes[id].anc = nil, nil, nil
	}
}

// TestRecycledNodeStartsEmpty drives two graphs through the same seeded
// random workloads — eight slots whose transactions keep finishing and
// being replaced, so a few ids are reused hundreds of times — one keeping
// node storage across incarnations, the reference dropping it after
// every operation. They must agree after each step on the cycle
// reported, edge for edge, on Stats, and on every live node's edges,
// their provenance and its ancestor set, and both must pass
// CheckInvariants. Odd seeds insert every edge with provenance, as a
// forensics run does; even seeds with none, and must keep none.
func TestRecycledNodeStartsEmpty(t *testing.T) {
	cyclesSeen, recycled := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref := New(), New()
		var steps []Step
		both := func(f func(*Graph) Step) Step {
			s, r := f(g), f(ref)
			ref.dropPooledArrays()
			if s != r {
				t.Fatalf("seed %d: step %v, reference %v", seed, s, r)
			}
			return s
		}
		for i := 0; i < 8; i++ {
			steps = append(steps, both(func(g *Graph) Step { return g.NewNode(true, i) }))
		}
		for e := 0; e < 400; e++ {
			i, j := rng.Intn(len(steps)), rng.Intn(len(steps))
			var got, want *Cycle
			switch rng.Intn(8) {
			case 0, 1:
				// The slot's transaction ends and the thread begins another.
				both(func(g *Graph) Step { g.Finish(steps[i]); return None })
				steps[i] = both(func(g *Graph) Step { return g.NewNode(true, 100*e+i) })
			case 2:
				if n := both(func(g *Graph) Step { return g.Tick(steps[i]) }); n != None {
					steps[i] = n
				}
			case 3:
				var provs []EdgeProv
				if seed%2 == 1 {
					provs = []EdgeProv{{HeadIdx: int64(e), Program: true}, {HeadIdx: int64(e), TailIdx: int64(j), HasTail: true}}
				}
				both(func(g *Graph) Step { s, _ := g.Merge([]Step{steps[i], steps[j]}, anyOp, e, provs); return s })
			default:
				op := trace.Wr(trace.Tid(i), trace.Var(e))
				var prov *EdgeProv
				if seed%2 == 1 {
					prov = &EdgeProv{HeadIdx: int64(e), TailIdx: int64(i), TailOp: op, HasTail: true}
				}
				got, want = g.AddEdge(steps[i], steps[j], op, prov), ref.AddEdge(steps[i], steps[j], op, prov)
			}
			if (got == nil) != (want == nil) || got != nil && !sameCycleEdges(got.Edges, want.Edges) {
				t.Fatalf("seed %d step %d: cycle %v, reference %v", seed, e, got, want)
			}
			if got != nil {
				cyclesSeen++
			}
			if g.Stats() != ref.Stats() {
				t.Fatalf("seed %d step %d: stats %+v, reference %+v", seed, e, g.Stats(), ref.Stats())
			}
			for id := range g.nodes {
				a, b := &g.nodes[id], &ref.nodes[id]
				if a.inUse != b.inUse || a.inUse && !(slices.Equal(a.out, b.out) && slices.Equal(a.prov, b.prov) && slices.Equal(a.anc, b.anc)) {
					t.Fatalf("seed %d step %d: n%d holds edges %v provenance %v ancestors %v, reference %v %v %v",
						seed, e, id, a.out, a.prov, a.anc, b.out, b.prov, b.anc)
				}
				if want := (seed%2 == 1) && a.inUse; want && len(a.prov) != len(a.out) || !want && len(a.prov) != 0 {
					t.Fatalf("seed %d step %d: n%d has %d edges and provenance for %d", seed, e, id, len(a.out), len(a.prov))
				}
			}
			for name, gr := range map[string]*Graph{"recycling": g, "reference": ref} {
				if err := gr.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d, %s graph: %v", seed, e, name, err)
				}
			}
		}
		recycled += g.Stats().Recycled
	}
	if cyclesSeen < 500 || recycled < 2000 {
		t.Fatalf("%d cycles over %d recycled ids: the driver is not reaching what it is for", cyclesSeen, recycled)
	}
}

// TestPooledStorageIsBounded: an open-transaction chain grows arrays as
// long as itself — the open node's out-edges, node k's k+1 ancestors.
// When the chain is collected the pool must not keep them: every pooled
// node holds at most the retention caps, and building the same chain
// again on the recycled ids reads exactly as many ancestor entries as
// the first time (PR 16's linear-per-node bound, unchanged by what the
// recycled nodes carried over).
func TestPooledStorageIsBounded(t *testing.T) {
	g := New()
	open, _ := buildOpenChain(t, g)
	first := g.ancReads
	g.Finish(open)
	if g.Alive() != 0 || len(g.free) != openChainLen+1 {
		t.Fatalf("%d alive, %d pooled: the chain was not collected", g.Alive(), len(g.free))
	}
	var outCap, ancCap, kept int
	for _, id := range g.free {
		nd := &g.nodes[id]
		if len(nd.out) != 0 || len(nd.anc) != 0 {
			t.Fatalf("pooled n%d still lists %d edges, %d ancestors", id, len(nd.out), len(nd.anc))
		}
		if cap(nd.out) > maxKeptEdges || cap(nd.anc) > maxKeptAnc {
			t.Fatalf("pooled n%d keeps room for %d edges and %d ancestors, caps are %d and %d",
				id, cap(nd.out), cap(nd.anc), maxKeptEdges, maxKeptAnc)
		}
		outCap += cap(nd.out)
		ancCap += cap(nd.anc)
		if cap(nd.anc) > 0 {
			kept++
		}
	}
	// The chain needed ~chain²/2 ancestor entries (8.4 M here). What stays
	// is the short sets at its head, and nothing of the long ones.
	if ancCap > maxKeptAnc*maxKeptAnc || kept == 0 {
		t.Errorf("pool keeps %d ancestor entries in %d nodes: want the first nodes' small sets only", ancCap, kept)
	}
	t.Logf("pool of %d nodes keeps room for %d edges, %d ancestor entries", len(g.free), outCap, ancCap)

	buildOpenChain(t, g)
	if again := g.ancReads - first; again != first {
		t.Errorf("rebuilding the chain on recycled ids read %d ancestor entries, the first build %d", again, first)
	}
	if first > openChainLen*openChainLen {
		t.Errorf("building the chain read %d ancestor entries, over %d", first, openChainLen*openChainLen)
	}
	if g.Stats().Recycled != openChainLen+1 {
		t.Errorf("recycled %d ids, want %d", g.Stats().Recycled, openChainLen+1)
	}
}

// TestSteadyStateAllocatesNothing is a transaction's life once the pool
// is warm: a node from the pool, an edge in from each of two others and
// their ancestors with it, finished, collected. No node, edge or
// ancestor entry of it is an allocation.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	g := New()
	l, r := g.NewNode(true, nil), g.NewNode(true, nil)
	life := func() {
		n := g.NewNode(true, nil)
		g.AddEdge(l, n, anyOp, nil)
		g.AddEdge(r, n, anyOp, nil)
		g.Finish(n) // stays, reachable from l and r, until they finish
		g.Finish(l)
		g.Finish(r)
		l, r = g.NewNode(true, nil), g.NewNode(true, nil)
	}
	if avg := testing.AllocsPerRun(200, life); avg != 0 {
		t.Errorf("%.2f allocations per transaction in the steady state, want 0", avg)
	}
	if g.Alive() != 2 || g.Stats().Recycled < 600 {
		t.Errorf("alive %d, recycled %d: the pool is not being used", g.Alive(), g.Stats().Recycled)
	}
}

// TestEdgeIsPointerFree: an edge's slot in a node's out list holds no
// pointer, so the out lists are memory the collector never marks and an
// AddEdge stores no write barrier.
func TestEdgeIsPointerFree(t *testing.T) {
	if err := layout.PointerFree(reflect.TypeOf(edge{})); err != nil {
		t.Errorf("graph edge holds a pointer: %v", err)
	}
}
