package graph

import "repro/internal/trace"

// EdgeProv is the access-pair provenance of a happens-before edge: which
// trace operations created it. The head access is the operation whose
// Step insertion added (or refreshed) the edge; the tail access is the
// earlier conflicting operation in the source transaction whose stored
// step (W(x), R(x,t) or U(m)) the edge was drawn from. Provenance exists
// only when forensics is enabled, and is kept out of the hot structs — a
// node's prov slice beside its out-edges, a pointer on a CycleEdge — so
// the default path builds, stores and copies none.
type EdgeProv struct {
	// HeadIdx is the trace index of the operation that inserted the edge.
	HeadIdx int64
	// TailIdx is the trace index of the conflicting access at the tail.
	TailIdx int64
	// TailOp is that access. Valid only when HasTail is set: program-order
	// edges and edges recorded with forensics off carry no tail access.
	TailOp  trace.Op
	HasTail bool
	// Program marks a program-order edge (thread-successor ordering, the
	// L(t) ⇒ s edges of [INS ENTER]/merge), as opposed to a cross-thread
	// conflict edge.
	Program bool
}

// CycleEdge is one happens-before edge on a detected cycle, annotated with
// the timestamps of the operations at its tail and head (Section 4.3).
type CycleEdge struct {
	From, To         NodeID
	FromData, ToData any
	TailTime         uint64    // timestamp of the operation at the source
	HeadTime         uint64    // timestamp of the operation at the destination
	Op               trace.Op  // the operation that generated the edge
	Prov             *EdgeProv // access-pair provenance; nil unless the edge was inserted with one
}

// Cycle is a non-trivial cycle in the transactional happens-before graph,
// discovered when an edge insertion would close it. Edges are listed in
// happens-before order starting from the node that completed the cycle
// (the destination of the rejected edge), so Edges[0].From is the
// potentially blamed transaction D and Edges[len-1] is the rejected edge.
type Cycle struct {
	Edges []CycleEdge
	// Increasing reports whether the cycle is increasing (Section 4.3): for
	// every node m other than the completer, the timestamp on the incoming
	// edge to m is at most the timestamp on the outgoing edge from m. An
	// increasing cycle witnesses that the completing transaction is not
	// self-serializable, so blame can be assigned to it.
	Increasing bool
}

// Completer returns the node that completed the cycle (the paper's D).
func (c *Cycle) Completer() NodeID { return c.Edges[0].From }

// CompleterData returns the metadata of the completing node.
func (c *Cycle) CompleterData() any { return c.Edges[0].FromData }

// increasing computes Cycle.Increasing, once, where the cycle is built.
func increasing(edges []CycleEdge) bool {
	n := len(edges)
	for i := 0; i < n; i++ {
		out := &edges[(i+1)%n]
		if out.From == edges[0].From {
			continue // the completer itself is exempt
		}
		if edges[i].HeadTime > out.TailTime {
			return false
		}
	}
	return true
}

// RootTime returns the timestamp within the completing transaction of the
// cycle's root operation — the operation whose edge leaves D. It decides
// which atomic blocks of D to refute.
func (c *Cycle) RootTime() uint64 { return c.Edges[0].TailTime }

// Chunks hands out what a violation report is made of — the graph's
// cycles and their edges, the engines' warnings and transaction metadata
// — from slabs its owner keeps. A slab is never reallocated or reused:
// the pointers and slices into it are the caller's to keep. Slabs start
// at chunkMin entries and double to chunkMax, so a short check does not
// pay for a long one's. The zero value is ready to use.
type Chunks[T any] struct{ cur []T }

const (
	chunkMin = 8
	chunkMax = 256
)

// Take returns n zeroed entries nobody else holds, with len == cap: an
// append by the holder copies them out instead of running on into a
// neighbour's.
func (c *Chunks[T]) Take(n int) []T {
	if cap(c.cur)-len(c.cur) < n {
		c.cur = make([]T, 0, max(n, min(max(2*cap(c.cur), chunkMin), chunkMax)))
	}
	lo := len(c.cur)
	c.cur = c.cur[:lo+n]
	return c.cur[lo : lo+n : lo+n]
}

// setProv records p as the provenance of nd.out[i]. The slice beside out
// comes into being with the first one: a graph handed none keeps none.
func (nd *node) setProv(i int, p *EdgeProv) {
	if p != nil {
		for len(nd.prov) <= i {
			nd.prov = append(nd.prov, EdgeProv{})
		}
		nd.prov[i] = *p
	} else if i < len(nd.prov) {
		nd.prov[i] = EdgeProv{}
	}
}

// AddEdge extends the happens-before relation with from ⇒ to (the paper's
// H ⊕ {(from, to)}). Edges from or to ⊥ (including stale steps) and
// self-edges are filtered out. If the edge would close a cycle, the cycle
// is returned and the edge is NOT added, keeping the graph acyclic; the
// caller reports the violation and continues.
func (g *Graph) AddEdge(from, to Step, op trace.Op) *Cycle {
	return g.AddEdgeP(from, to, op, nil)
}

// AddEdgeP is AddEdge carrying access-pair provenance for the edge (nil
// for none). The forensics-enabled engines use it; *prov is copied beside
// the edge (and refreshed with the timestamps under ⊕) so a later cycle
// report can name the exact accesses that created each edge. A returned
// Cycle is the caller's to keep: the graph never writes its chunks again.
func (g *Graph) AddEdgeP(from, to Step, op trace.Op, prov *EdgeProv) *Cycle {
	from, to = g.Resolve(from), g.Resolve(to)
	if from == None || to == None || from.ID() == to.ID() {
		return nil
	}
	src, dst := from.ID(), to.ID()
	nd := &g.nodes[src]
	// Last-edge memo: if this (src,dst) pair is exactly the edge we
	// appended or refreshed last time from src, the edge is already in H
	// and the graph is acyclic, so re-inserting it cannot close a cycle —
	// refresh the timestamps (⊕) and skip the ancestor check and the
	// edge-table scan entirely. Unfiltered loops hit this path on nearly
	// every iteration.
	if !g.noMemo && nd.memoIdx >= 0 && nd.memoTo == dst &&
		int(nd.memoIdx) < len(nd.out) && nd.out[nd.memoIdx].to == dst {
		e := &nd.out[nd.memoIdx]
		e.tailTime = from.Time()
		e.headTime = to.Time()
		e.op = op
		nd.setProv(int(nd.memoIdx), prov)
		if h := to.Time(); h > g.nodes[dst].lastInHead {
			g.nodes[dst].lastInHead = h
		}
		g.stats.FilteredEdges++
		return nil
	}
	g.stats.CycleChecks++
	// O(1) cycle test via the ancestor sets; the DFS below runs only on
	// the (rare) violation path, to extract the cycle for the report.
	if g.isAncestor(dst, src) {
		// to ⇒* from already holds; adding from ⇒ to would close a cycle.
		path, ok := g.findPath(dst, src)
		if !ok {
			panic("graph: ancestor set claims a path the edges do not have")
		}
		// The one copy: path is scratch, the Cycle is the caller's.
		edges := g.cycEdges.Take(len(path) + 1)
		copy(edges, path)
		edges[len(path)] = CycleEdge{
			From: src, To: dst,
			FromData: g.nodes[src].data, ToData: g.nodes[dst].data,
			TailTime: from.Time(), HeadTime: to.Time(),
			Op: op,
		}
		keepProvs(edges, prov)
		g.stats.CyclesDetected++
		cyc := &g.cycles.Take(1)[0]
		*cyc = Cycle{Edges: edges, Increasing: increasing(edges)}
		return cyc
	}
	for i := range nd.out {
		if nd.out[i].to == dst {
			// Replace timestamps: one edge per node pair (Section 4.3).
			nd.out[i].tailTime = from.Time()
			nd.out[i].headTime = to.Time()
			nd.out[i].op = op
			nd.setProv(i, prov)
			nd.memoTo, nd.memoIdx = dst, int32(i)
			if h := to.Time(); h > g.nodes[dst].lastInHead {
				g.nodes[dst].lastInHead = h
			}
			return nil
		}
	}
	nd.out = append(nd.out, edge{to: dst, tailTime: from.Time(), headTime: to.Time(), op: op})
	nd.setProv(len(nd.out)-1, prov)
	nd.memoTo, nd.memoIdx = dst, int32(len(nd.out)-1)
	g.nodes[dst].in++
	if h := to.Time(); h > g.nodes[dst].lastInHead {
		g.nodes[dst].lastInHead = h
	}
	g.stats.Edges++
	g.stats.EdgesAdded++
	g.addAncestors(dst, g.ancestorsPlusSelf(src))
	return nil
}

// keepProvs gives a new cycle's edges their own copies of the provenance
// they point at — a path edge's is in its node's prov slice, which ⊕ and
// recycling rewrite, the closing edge's in the caller's frame — in one
// array per cycle, and only when some edge carries provenance at all.
func keepProvs(edges []CycleEdge, closing *EdgeProv) {
	var own []EdgeProv
	for i := range edges {
		p := edges[i].Prov
		if i == len(edges)-1 {
			p = closing
		}
		if p == nil {
			continue
		}
		if own == nil {
			own = make([]EdgeProv, 0, len(edges)-i)
		}
		own = append(own, *p)
		edges[i].Prov = &own[len(own)-1]
	}
}

// HappensBeforeOrSame reports whether a's node reaches b's node in H*
// (reflexive-transitive closure). Stale or ⊥ steps never happen-before
// anything.
func (g *Graph) HappensBeforeOrSame(a, b Step) bool {
	a, b = g.Resolve(a), g.Resolve(b)
	if a == None || b == None {
		return false
	}
	if a.ID() == b.ID() {
		return true
	}
	return g.isAncestor(a.ID(), b.ID())
}

// pathFrame is one level of findPath's DFS: a node and the index of its
// next out-edge to try.
type pathFrame struct {
	id   NodeID
	next int
}

// findPath reports whether some path src ⇒* dst exists and returns its
// edges (none when src == dst). The result is the graph's own scratch,
// valid until the next findPath, its Prov pointers until the next
// insertion: AddEdgeP copies both into the Cycle it returns, and
// nothing else keeps them. The live graph is small (a few
// dozen nodes even on large benchmarks, Table 1), so an iterative DFS
// per query is cheap.
func (g *Graph) findPath(src, dst NodeID) ([]CycleEdge, bool) {
	if src == dst {
		return nil, true
	}
	g.gen++
	stack := append(g.pathStack[:0], pathFrame{id: src})
	path := g.pathScratch[:0]
	g.nodes[src].visited = g.gen
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nd := &g.nodes[f.id]
		if f.next >= len(nd.out) {
			stack = stack[:len(stack)-1]
			if len(path) > 0 {
				path = path[:len(path)-1]
			}
			continue
		}
		e := &nd.out[f.next]
		var prov *EdgeProv
		if f.next < len(nd.prov) {
			prov = &nd.prov[f.next]
		}
		f.next++
		path = append(path, CycleEdge{
			From: f.id, To: e.to,
			FromData: nd.data, ToData: g.nodes[e.to].data,
			TailTime: e.tailTime, HeadTime: e.headTime,
			Op: e.op, Prov: prov,
		})
		if e.to == dst {
			g.pathStack, g.pathScratch = stack, path
			return path, true
		}
		if g.nodes[e.to].visited != g.gen {
			g.nodes[e.to].visited = g.gen
			stack = append(stack, pathFrame{id: e.to})
		} else {
			path = path[:len(path)-1]
		}
	}
	g.pathStack, g.pathScratch = stack, path
	return nil, false
}
