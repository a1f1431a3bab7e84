package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestAncestorSetMatchesDFS: after random edge insertions, finishes and
// collections, the O(1) ancestor-set reachability answer must equal the
// DFS answer for every live node pair.
func TestAncestorSetMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		g := New()
		var steps []Step
		for i := 0; i < 8; i++ {
			steps = append(steps, g.NewNode(true, i))
		}
		for e := 0; e < 14; e++ {
			a := steps[rng.Intn(len(steps))]
			b := steps[rng.Intn(len(steps))]
			g.AddEdge(a, b, anyOp, nil) // cycles rejected; fine
			if rng.Intn(4) == 0 {
				g.Finish(steps[rng.Intn(len(steps))])
			}
		}
		for _, a := range steps {
			for _, b := range steps {
				if g.Resolve(a) == None || g.Resolve(b) == None || a.ID() == b.ID() {
					continue
				}
				set := g.isAncestor(a.ID(), b.ID())
				_, dfs := g.findPath(a.ID(), b.ID())
				if set != dfs {
					t.Fatalf("iter %d: isAncestor(%v,%v)=%v but DFS=%v",
						iter, a, b, set, dfs)
				}
			}
		}
	}
}

// TestAncestorEntriesSurviveRecycling: recycled node ids must not leak
// stale ancestor facts into the new incarnation.
func TestAncestorEntriesSurviveRecycling(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	g.AddEdge(a, b, anyOp, nil) // a is an ancestor of b
	aID := a.ID()
	g.Finish(a) // collected; cascade also frees b? b has in-edge... a's
	// collection removes a→b, then b (inactive? no: b still active).
	a2 := g.NewNode(true, nil)
	if a2.ID() != aID {
		t.Skip("allocator did not recycle the id")
	}
	// The new incarnation a2 must NOT appear as an ancestor of b.
	if g.isAncestor(a2.ID(), b.ID()) {
		t.Fatal("stale ancestor entry leaked into recycled incarnation")
	}
	// And the edge b→a2 must now be legal (no phantom cycle).
	if cyc := g.AddEdge(b, a2, anyOp, nil); cyc != nil {
		t.Fatalf("phantom cycle from recycled id: %v", cyc)
	}
}

// TestQuickRandomGraphsStayAcyclic: whatever sequence of operations is
// thrown at the graph, a detected-and-rejected cycle is the only way a
// cycle can exist, so the maintained graph remains a DAG (checked by
// verifying every node is not its own ancestor).
func TestQuickRandomGraphsStayAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var steps []Step
		for i := 0; i < 6; i++ {
			steps = append(steps, g.NewNode(rng.Intn(2) == 0, nil))
		}
		for e := 0; e < 20; e++ {
			switch rng.Intn(5) {
			case 0:
				steps = append(steps, g.NewNode(true, nil))
			case 1:
				g.Finish(steps[rng.Intn(len(steps))])
			case 2:
				s := steps[rng.Intn(len(steps))]
				if n := g.Tick(s); n != None {
					steps[rng.Intn(len(steps))] = n
				}
			default:
				g.AddEdge(steps[rng.Intn(len(steps))], steps[rng.Intn(len(steps))], anyOp, nil)
			}
		}
		for _, s := range steps {
			if g.Resolve(s) == None {
				continue
			}
			if g.isAncestor(s.ID(), s.ID()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeUsesAncestorKnowledge: merge must reuse a finished candidate
// that transitively dominates the others, found via the ancestor sets.
func TestMergeUsesAncestorKnowledge(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	c := g.NewNode(true, nil)
	g.AddEdge(a, b, anyOp, nil)
	g.AddEdge(b, c, anyOp, nil)
	g.Finish(c) // finished but pinned by incoming edge
	before := g.Stats().Allocated
	s, _ := g.Merge([]Step{a, c}, anyOp, nil, nil) // a ⇒* c transitively
	if s.ID() != c.ID() {
		t.Fatalf("merge returned %v, want c's node", s)
	}
	if g.Stats().Allocated != before {
		t.Fatal("merge allocated despite a dominating candidate")
	}
}

// TestEdgeCountBoundedByNodePairs: re-adding edges between the same node
// pair must never grow H (the |Node|² bound of Section 4.3).
func TestEdgeCountBoundedByNodePairs(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	for i := 0; i < 50; i++ {
		a2, b2 := g.Tick(a), g.Tick(b)
		g.AddEdge(a2, b2, anyOp, nil)
		a, b = a2, b2
	}
	if got := g.Stats().Edges; got != 1 {
		t.Fatalf("edges = %d, want 1 (one edge per node pair)", got)
	}
}

// TestMergeScratchNotRetained: Merge's candidate buffer is reused; two
// back-to-back merges must not corrupt each other.
func TestMergeScratchNotRetained(t *testing.T) {
	g := New()
	a := g.NewNode(true, nil)
	b := g.NewNode(true, nil)
	s1, _ := g.Merge([]Step{a, b}, anyOp, nil, nil)
	s2, _ := g.Merge([]Step{a, b, s1}, anyOp, nil, nil)
	if s2 == None {
		t.Fatal("second merge lost its candidates")
	}
	if !g.HappensBeforeOrSame(a, s2) || !g.HappensBeforeOrSame(b, s2) {
		t.Fatal("second merge result must dominate the predecessors")
	}
}

// TestInvariantsUnderRandomUse drives the graph through random operation
// sequences and checks the full invariant battery after every step.
func TestInvariantsUnderRandomUse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 60; iter++ {
		g := New()
		var steps []Step
		for i := 0; i < 5; i++ {
			steps = append(steps, g.NewNode(true, nil))
		}
		for e := 0; e < 30; e++ {
			switch rng.Intn(6) {
			case 0:
				// Inactive nodes are only ever created by Merge (which
				// immediately gives them incoming edges), so the random
				// driver allocates active ones, like [INS2 ENTER] does.
				steps = append(steps, g.NewNode(true, nil))
			case 1:
				g.Finish(steps[rng.Intn(len(steps))])
			case 2:
				if n := g.Tick(steps[rng.Intn(len(steps))]); n != None {
					steps[rng.Intn(len(steps))] = n
				}
			case 3:
				g.Merge([]Step{steps[rng.Intn(len(steps))], steps[rng.Intn(len(steps))]},
					anyOp, nil, nil)
			default:
				g.AddEdge(steps[rng.Intn(len(steps))], steps[rng.Intn(len(steps))], anyOp, nil)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("iter %d step %d: %v", iter, e, err)
			}
		}
	}
}

// addAncestorsScan is the membership test addAncestors replaced: one
// scan of the set per incoming entry. It stays here as the reference.
func (g *Graph) addAncestorsScan(n NodeID, entries []ancEntry) {
	nd := &g.nodes[n]
	added := false
	for _, e := range entries {
		if e.id == n {
			continue
		}
		if !slices.Contains(nd.anc, e) {
			nd.anc = append(nd.anc, e)
			added = true
		}
	}
	if !added {
		return
	}
	for _, e := range nd.out {
		g.addAncestorsScan(e.to, entries)
	}
}

// cloneForAncestors copies what addAncestors reads and writes.
func (g *Graph) cloneForAncestors() *Graph {
	c := &Graph{nodes: slices.Clone(g.nodes), ancMarks: slices.Clone(g.ancMarks), ancGen: g.ancGen}
	for i := range c.nodes {
		c.nodes[i].anc = slices.Clone(c.nodes[i].anc)
		c.nodes[i].out = slices.Clone(c.nodes[i].out)
	}
	return c
}

// TestAddAncestorsMatchesScan grows random DAGs whose nodes finish, get
// collected and have their ids recycled, and before every edge runs the
// merge that edge is about to cause through the stamped addAncestors and
// through the scan it replaced, on two copies: every node's set must come
// out the same, entry for entry and in the same order. Every fourth merge
// is hostile instead: duplicates, entries of dead incarnations, and ids
// the set already holds under another birth.
func TestAddAncestorsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	merges, recycled := 0, 0
	for iter := 0; iter < 300; iter++ {
		g := New()
		var steps []Step
		for i := 0; i < 6; i++ {
			steps = append(steps, g.NewNode(true, nil))
		}
		for e := 0; e < 40; e++ {
			switch rng.Intn(6) {
			case 0:
				steps = append(steps, g.NewNode(true, nil))
				continue
			case 1:
				g.Finish(steps[rng.Intn(len(steps))])
				continue
			}
			src, dst := steps[rng.Intn(len(steps))], steps[rng.Intn(len(steps))]
			if g.Resolve(src) == None || g.Resolve(dst) == None || src.ID() == dst.ID() {
				continue
			}
			entries := slices.Clone(g.ancestorsPlusSelf(src.ID()))
			if e%4 == 3 {
				for i := rng.Intn(6); i >= 0; i-- {
					id := NodeID(rng.Intn(len(g.nodes)))
					entries = append(entries, ancEntry{id: id, birth: g.nodes[id].birthTime - uint64(rng.Intn(3))})
				}
				entries = append(entries, entries[rng.Intn(len(entries))])
				rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			}
			got, want := g.cloneForAncestors(), g.cloneForAncestors()
			got.addAncestors(dst.ID(), entries)
			want.addAncestorsScan(dst.ID(), entries)
			merges++
			for id := range want.nodes {
				if !slices.Equal(got.nodes[id].anc, want.nodes[id].anc) {
					t.Fatalf("iter %d step %d: merging %v into n%d: n%d holds %v, the scan gives %v",
						iter, e, entries, dst.ID(), id, got.nodes[id].anc, want.nodes[id].anc)
				}
			}
			g.AddEdge(src, dst, anyOp, nil)
		}
		recycled += g.Stats().Recycled
	}
	if merges < 3000 || recycled < 300 {
		t.Fatalf("%d merges compared over %d recycled ids: the driver is not reaching what it is for", merges, recycled)
	}
}

const openChainLen = 4096

// buildOpenChain adds to g one open transaction and openChainLen finished
// ones that each conflict with it and with their predecessor, and returns
// the open node's step and the last one's: nothing of it can be collected
// before the open node finishes, and node k holds k+1 ancestors.
func buildOpenChain(t *testing.T, g *Graph) (open, last Step) {
	t.Helper()
	open = g.NewNode(true, nil)
	last = None
	for k := 0; k < openChainLen; k++ {
		n := g.NewNode(true, nil)
		if c := g.AddEdge(open, n, anyOp, nil); c != nil {
			t.Fatalf("node %d: cycle %v", k, c)
		}
		if last != None {
			if c := g.AddEdge(last, n, anyOp, nil); c != nil {
				t.Fatalf("node %d: cycle %v", k, c)
			}
		}
		g.Finish(n)
		if got := len(g.nodes[n.ID()].anc); got != k+1 {
			t.Fatalf("node %d has %d ancestors, want %d", k, got, k+1)
		}
		last = n
	}
	return open, last
}

// TestOpenTransactionChainIsLinearPerNode builds the chain a fast
// producer makes an ordinary program leave behind: one transaction stays
// open while another thread completes 4096 that conflict with it, so
// each new node takes the open node's edge first and then its
// predecessor's whole ancestor set. Merging k entries into the set cost
// the scan k²/2 compares (10¹⁰ over this chain); stamped, it reads the
// set and the entries once each. The bound is on Graph.ancReads, the
// entries addAncestors read, not on a clock: the same under the race
// detector and on a loaded host.
func TestOpenTransactionChainIsLinearPerNode(t *testing.T) {
	const chain = openChainLen
	g := New()
	open, prev := buildOpenChain(t, g)
	if g.Stats().MaxAlive != chain+1 {
		t.Fatalf("max alive %d, want %d: the chain was collected", g.Stats().MaxAlive, chain+1)
	}
	// Node k read its own one-entry set and its predecessor's k+1: the
	// chain sums to chain²/2 and a little. The scan's sum is chain³/6.
	if g.ancReads > chain*chain {
		t.Errorf("building a %d-node chain read %d ancestor entries, over %d: addAncestors is quadratic in the set again", chain, g.ancReads, chain*chain)
	}

	last := g.NewNode(true, nil)
	g.AddEdge(open, last, anyOp, nil)
	entries := slices.Clone(g.ancestorsPlusSelf(prev.ID()))
	nd := &g.nodes[last.ID()] // last has no descendants: the merge touches this set only
	reads := g.ancReads
	g.addAncestors(last.ID(), entries)
	if got := len(nd.anc); got != chain+1 {
		t.Fatalf("merged set has %d entries, want %d", got, chain+1)
	}
	if got, want := g.ancReads-reads, uint64(1+len(entries)); got != want {
		t.Errorf("merging %d entries into a set of 1 read %d, want %d", len(entries), got, want)
	}

	// The one case that still scans is counted: an id the set holds under
	// another birth costs the set's length again.
	reads = g.ancReads
	g.addAncestors(last.ID(), []ancEntry{{id: open.ID(), birth: g.nodes[open.ID()].birthTime + 1}})
	if got, want := g.ancReads-reads, uint64(2*(chain+1)+1); got != want {
		t.Errorf("merging one entry of another incarnation read %d, want %d: the scan is not counted", got, want)
	}
}
