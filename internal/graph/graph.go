// Package graph implements the transactional happens-before graph at the
// heart of Velodrome (PLDI 2008, Sections 4 and 5).
//
// Nodes represent transactions. A Step is a 64-bit weak reference to a
// particular operation within a transaction: the top 16 bits identify a
// Node object in a recycling pool and the low 48 bits are a timestamp
// within that node, exactly as in Section 5 of the paper. When a node is
// garbage collected its timestamp watermark is remembered, so stale steps
// held in the analysis state (L, U, R, W) dereference to ⊥ even after the
// Node object has been recycled to represent a new transaction.
//
// The graph is kept acyclic at all times: an edge insertion that would
// close a cycle is reported (with the full cycle and its per-edge head and
// tail timestamps, for blame assignment) and the edge is discarded.
// Finished nodes with no incoming edges can never lie on a future cycle
// (Section 4.1) and are reference-count collected immediately, cascading
// along their outgoing edges.
package graph

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// NodeID indexes the node pool. The zero-width of 16 bits matches the
// paper's packed representation; a run needs more than 65535 simultaneously
// live transactions only if garbage collection is disabled on a huge trace.
type NodeID uint16

// Step is a packed weak reference to (node, timestamp). The zero value is
// not a valid step; use None for ⊥.
type Step uint64

// None is the ⊥ step: the absence of a transaction.
const None Step = ^Step(0)

const (
	timeBits = 48
	timeMask = (Step(1) << timeBits) - 1
	maxNodes = 1 << 16
)

// maxKeptEdges and maxKeptAnc cap the out-edge and ancestor arrays a
// collected node carries into the pool for its next incarnation. Under GC
// a transaction has a handful of edges and ancestors (Table 1: a few dozen
// live nodes), so these cover the steady state and recycling allocates
// nothing; the exception is an open-transaction chain, where node k holds
// k ancestors — arrays that large go back to the allocator when the chain
// is collected instead of being parked, k entries each, in the free list.
const (
	maxKeptEdges = 32
	maxKeptAnc   = 64
)

func pack(id NodeID, time uint64) Step {
	return Step(id)<<timeBits | Step(time)&timeMask
}

// ID returns the node id encoded in the step. Only meaningful for live
// steps; callers normally go through Graph.Resolve first.
func (s Step) ID() NodeID { return NodeID(s >> timeBits) }

// Time returns the timestamp encoded in the step.
func (s Step) Time() uint64 { return uint64(s & timeMask) }

// String renders the step as (n<id>, <time>), or ⊥ for None.
func (s Step) String() string {
	if s == None {
		return "⊥"
	}
	return fmt.Sprintf("(n%d,%d)", s.ID(), s.Time())
}

// An edge records that the source node happens-before the destination
// node, together with the timestamps of the operations at its tail
// (source) and head (destination). At most one edge exists per ordered
// node pair; re-insertion replaces the timestamps (the ⊕ operator of
// Section 4.3).
type edge struct {
	to       NodeID
	tailTime uint64
	headTime uint64
	op       trace.Op
}

type node struct {
	inUse  bool
	active bool // currently some thread's executing transaction
	in     int  // number of incoming edges in H
	// birthTime and curTime delimit the live timestamp range of the
	// current incarnation; steps outside it are stale and read as ⊥.
	birthTime uint64
	curTime   uint64
	out       []edge
	prov      []EdgeProv // provenance of out[i]; empty unless edges are inserted with one (forensics)
	anc       []ancEntry // ancestor set (Section 5), lazily compacted
	visited   uint64     // DFS generation marker (cycle extraction only)
	data      any        // client metadata, cleared on recycle
	// lastInHead is the largest head timestamp among the edges inserted
	// into this incarnation (0 if none yet). Heads of later insertions
	// are strictly larger than earlier operation timestamps within the
	// node, so lastInHead ≤ s.Time() proves no cross-thread ordering has
	// arrived since step s — the §5 redundancy precondition.
	lastInHead uint64
	// memoTo/memoIdx remember the out-edge most recently appended or
	// refreshed from this node, so tight unfiltered loops that re-insert
	// the same (src,dst) pair dedupe in O(1) before the ancestor check
	// and the edge-table scan. memoIdx < 0 means no memo.
	memoTo  NodeID
	memoIdx int32
}

// Stats reports allocation behaviour, the quantities in the last four
// columns of Table 1.
type Stats struct {
	Allocated int // total nodes ever allocated (both engines' "Allocated")
	Recycled  int // allocations served from the free list (pool reuse)
	MaxAlive  int // peak simultaneously live nodes ("Max. Alive")
	Alive     int // currently live nodes
	Collected int // nodes garbage collected
	Merged    int // merge calls satisfied without allocating
	Edges     int // edges currently in H
	// FilteredEdges counts AddEdge calls satisfied by the per-node
	// last-edge memo: the (src,dst) pair matched the previous insertion,
	// so only the timestamps were refreshed (the ⊕ of Section 4.3) with
	// no ancestor-set work.
	FilteredEdges int
	// CycleChecks counts AddEdge calls that reached the ancestor-set
	// cycle test (every insertion the memo did not serve),
	// CyclesDetected those it refused, EdgesAdded those that put a new
	// edge in H.
	CycleChecks    int
	CyclesDetected int
	EdgesAdded     int
}

// Graph is a transactional happens-before graph. It is not safe for
// concurrent use; the Velodrome back-end serializes the event stream.
type Graph struct {
	nodes       []node
	free        []NodeID
	gen         uint64
	noGC        bool
	noMemo      bool
	scratch     []Step            // Merge's reusable candidate buffer
	provScratch []EdgeProv        // MergeP's reusable provenance buffer
	ancScratch  []ancEntry        // ancestorsPlusSelf's reusable buffer
	pathStack   []pathFrame       // findPath's DFS stack
	pathScratch []CycleEdge       // findPath's result, valid until its next call
	cycles      Chunks[Cycle]     // the cycles AddEdgeP has returned
	cycEdges    Chunks[CycleEdge] // and their edges
	ancMarks    []ancMark         // addAncestors' stamps, one per node id
	ancGen      uint64            // number of the current addAncestors merge
	ancReads    uint64            // ancestor entries addAncestors has read
	stats       Stats
}

// New returns an empty graph with garbage collection enabled.
func New() *Graph { return &Graph{} }

// SetGC enables or disables reference-counting garbage collection.
// Disabling it is only useful for differential testing (invariant 2 of
// DESIGN.md); large traces will exhaust the 16-bit node space.
func (g *Graph) SetGC(on bool) { g.noGC = !on }

// SetMemo enables or disables the last-edge memo in AddEdge. It is part
// of the redundant-event filtering layer and is toggled together with
// the engines' FilterRedundant option, so the filter-off benchmark
// columns measure the true unfiltered baseline.
func (g *Graph) SetMemo(on bool) { g.noMemo = !on }

// Stats returns a snapshot of allocation statistics.
func (g *Graph) Stats() Stats { return g.stats }

// Alive returns the number of currently live nodes.
func (g *Graph) Alive() int { return g.stats.Alive }

// NewNode allocates a fresh transaction node and returns its initial step.
// active marks it as some thread's currently executing transaction, which
// pins it against collection until Finish.
func (g *Graph) NewNode(active bool, data any) Step {
	var id NodeID
	if n := len(g.free); n > 0 {
		id = g.free[n-1]
		g.free = g.free[:n-1]
		g.stats.Recycled++
	} else {
		if len(g.nodes) >= maxNodes {
			panic("graph: node pool exhausted (65536 live nodes); enable GC")
		}
		g.nodes = append(g.nodes, node{})
		g.ancMarks = append(g.ancMarks, ancMark{})
		id = NodeID(len(g.nodes) - 1)
	}
	nd := &g.nodes[id]
	birth := nd.curTime + 1
	// A recycled node keeps the arrays maybeCollect left it, emptied: the
	// new incarnation has no edges and no ancestors, and allocates none
	// until it outgrows what the last one needed.
	*nd = node{
		inUse:     true,
		active:    active,
		birthTime: birth,
		curTime:   birth,
		out:       nd.out[:0],
		prov:      nd.prov[:0],
		anc:       nd.anc[:0],
		data:      data,
		memoIdx:   -1,
	}
	g.stats.Allocated++
	g.stats.Alive++
	if g.stats.Alive > g.stats.MaxAlive {
		g.stats.MaxAlive = g.stats.Alive
	}
	return pack(id, birth)
}

// Resolve maps stale steps to None: a step whose node has been collected
// (or recycled for a newer transaction) reads as ⊥, per Section 5.
func (g *Graph) Resolve(s Step) Step {
	if s == None {
		return None
	}
	nd := &g.nodes[s.ID()]
	if !nd.inUse || s.Time() < nd.birthTime || s.Time() > nd.curTime {
		return None
	}
	return s
}

func (g *Graph) live(s Step) *node {
	if s = g.Resolve(s); s == None {
		return nil
	}
	return &g.nodes[s.ID()]
}

// Tick returns the step following s within the same transaction (the
// paper's L(t)+1), advancing the node's timestamp. Tick of ⊥ or of a stale
// step is ⊥.
func (g *Graph) Tick(s Step) Step {
	nd := g.live(s)
	if nd == nil {
		return None
	}
	nd.curTime++
	return pack(s.ID(), nd.curTime)
}

// active reports whether the step's node is a currently executing
// transaction.
func (g *Graph) active(s Step) bool {
	nd := g.live(s)
	return nd != nil && nd.active
}

// Reusable reports whether s resolves to a live, finished node — the
// precondition under which Merge returns a candidate as-is instead of
// allocating. The engines' redundant-event fast path uses it to prove a
// merge call would be the identity on L(t).
func (g *Graph) Reusable(s Step) bool {
	nd := g.live(s)
	return nd != nil && !nd.active
}

// NoNewerIncoming reports whether s is live and no happens-before edge
// has arrived at its node with a head timestamp later than s. Edge heads
// carry the destination's operation timestamp at insertion, which only
// moves forward, so this is the §5 "no newer cross-thread access"
// check in one comparison.
func (g *Graph) NoNewerIncoming(s Step) bool {
	nd := g.live(s)
	return nd != nil && nd.lastInHead <= s.Time()
}

// LastEdgeMatches reports whether the edge most recently inserted from
// src's node already links src's exact operation (same tail timestamp)
// to dst's node. When it holds, re-inserting src ⇒ dst would be a pure
// head/op refresh of an edge already in H — it can close no cycle and
// change no tail — which is what lets the engines' fast path skip
// repeated cross-thread conflict edges entirely.
func (g *Graph) LastEdgeMatches(src, dst Step) bool {
	nd := g.live(src)
	if nd == nil || nd.memoIdx < 0 || nd.memoTo != dst.ID() {
		return false
	}
	e := &nd.out[nd.memoIdx]
	return e.to == dst.ID() && e.tailTime == src.Time()
}

// HasEdge reports whether an edge from src's exact operation (same tail
// timestamp) to dst's node is already in H, scanning src's full out-edge
// list rather than only the memo slot. It is the slow-path complement of
// LastEdgeMatches: the memo is clobbered whenever *any* later edge leaves
// src's node, but the original edge stays in H, so re-inserting src ⇒ dst
// would still be a pure head/op refresh — it can close no cycle and
// change no tail. Out-degrees stay tiny under GC (a finished node with
// edges is kept alive only by its subscribers), so the scan is cheap.
func (g *Graph) HasEdge(src, dst Step) bool {
	nd := g.live(src)
	if nd == nil || dst == None {
		return false
	}
	for i := range nd.out {
		e := &nd.out[i]
		if e.to == dst.ID() && e.tailTime == src.Time() {
			return true
		}
	}
	return false
}

// Finish marks the step's node as no longer executing ([INS2 EXIT]); if it
// has no incoming edges it is collected immediately.
func (g *Graph) Finish(s Step) {
	nd := g.live(s)
	if nd == nil {
		return
	}
	nd.active = false
	g.maybeCollect(s.ID())
}

// maybeCollect applies the GC rule of Section 4.1: a finished node with no
// incoming edges is removed, cascading along its outgoing edges.
func (g *Graph) maybeCollect(id NodeID) {
	if g.noGC {
		return
	}
	nd := &g.nodes[id]
	if !nd.inUse || nd.active || nd.in > 0 {
		return
	}
	out := nd.out
	nd.inUse = false
	// The arrays stay with the pooled node for its next incarnation,
	// emptied (out is still walked below), unless this one grew them past
	// the retention caps.
	nd.out, nd.prov, nd.anc = nd.out[:0], nd.prov[:0], nd.anc[:0]
	if cap(nd.out) > maxKeptEdges {
		nd.out = nil
	}
	if cap(nd.prov) > maxKeptEdges {
		nd.prov = nil
	}
	if cap(nd.anc) > maxKeptAnc {
		nd.anc = nil
	}
	nd.data = nil
	g.stats.Alive--
	g.stats.Collected++
	g.stats.Edges -= len(out)
	g.free = append(g.free, id)
	for _, e := range out {
		to := &g.nodes[e.to]
		to.in--
		g.maybeCollect(e.to)
	}
}

// SetData attaches client metadata to the step's node (used by callers
// that learn the metadata only after allocation, e.g. after Merge).
func (g *Graph) SetData(s Step, v any) {
	if nd := g.live(s); nd != nil {
		nd.data = v
	}
}

// DebugDot renders the current live graph in Graphviz dot form, for
// inspecting the handful of nodes GC leaves alive at any moment.
func (g *Graph) DebugDot() string {
	var b strings.Builder
	b.WriteString("digraph hbgraph {\n  node [shape=box];\n")
	for id := range g.nodes {
		nd := &g.nodes[id]
		if !nd.inUse {
			continue
		}
		label := fmt.Sprintf("n%d", id)
		if nd.data != nil {
			label = fmt.Sprintf("%v", nd.data)
		}
		style := ""
		if nd.active {
			style = ", style=bold"
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", id, label, style)
	}
	for id := range g.nodes {
		nd := &g.nodes[id]
		if !nd.inUse {
			continue
		}
		for _, e := range nd.out {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", id, e.to, e.op.String())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// CheckInvariants verifies the internal consistency of the graph and
// returns the first violation found (test hook):
//
//   - every in-degree equals the number of live edges pointing at the node;
//   - the graph is acyclic;
//   - every live ancestor entry corresponds to real edge reachability;
//   - no finished node with zero in-degree survives while GC is on.
func (g *Graph) CheckInvariants() error {
	in := make([]int, len(g.nodes))
	for id := range g.nodes {
		nd := &g.nodes[id]
		if !nd.inUse {
			continue
		}
		for _, e := range nd.out {
			if !g.nodes[e.to].inUse {
				return fmt.Errorf("graph: edge n%d→n%d points at a collected node", id, e.to)
			}
			in[e.to]++
		}
	}
	for id := range g.nodes {
		nd := &g.nodes[id]
		if !nd.inUse {
			continue
		}
		if nd.in != in[id] {
			return fmt.Errorf("graph: n%d in-degree %d, edges say %d", id, nd.in, in[id])
		}
		if !g.noGC && !nd.active && nd.in == 0 {
			return fmt.Errorf("graph: n%d finished with no incoming edges but not collected", id)
		}
		for _, e := range nd.out {
			// findPath is reflexive, so test reachability from successors
			// (a self-edge makes the successor the node itself).
			if _, ok := g.findPath(e.to, NodeID(id)); ok {
				return fmt.Errorf("graph: n%d lies on a cycle", id)
			}
		}
		for _, e := range nd.anc {
			if !g.liveEntry(e) {
				continue // stale entries are legal; compacted lazily
			}
			if _, ok := g.findPath(e.id, NodeID(id)); !ok {
				return fmt.Errorf("graph: n%d claims ancestor n%d with no path", id, e.id)
			}
		}
		if nd.memoIdx >= 0 {
			if int(nd.memoIdx) >= len(nd.out) || nd.out[nd.memoIdx].to != nd.memoTo {
				return fmt.Errorf("graph: n%d edge memo (→n%d at %d) does not match its out-edges", id, nd.memoTo, nd.memoIdx)
			}
		}
		for _, e := range nd.out {
			if e.headTime > g.nodes[e.to].lastInHead {
				return fmt.Errorf("graph: edge n%d→n%d head %d above n%d's lastInHead %d", id, e.to, e.headTime, e.to, g.nodes[e.to].lastInHead)
			}
		}
	}
	return nil
}
