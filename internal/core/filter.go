package core

import (
	"repro/internal/graph"
	"repro/internal/trace"
)

// Redundant-event filtering (Section 5): an access is discarded before
// any graph work when it provably cannot add a happens-before edge nor
// shift a later cycle or blame verdict. The checks below are a handful
// of integer comparisons on the packed graph.Step words, in the spirit
// of FastTrack/AeroDrome epoch same-owner tests. DESIGN.md ("Redundant
// events and the fast path") carries the full equivalence argument;
// the differential matrix in filter_test.go enforces it.

// fcEntry memoizes, per variable, the engine state under which the last
// full filter validation succeeded — one slot for reads, one for writes.
// Thread ids are stored shifted by one so the zero value (a freshly grown
// entry) can never match. A bitwise re-match of the recorded state proves
// the event is still redundant without touching the graph at all:
//
//   - L(t) unchanged ⟹ no state-changing operation of t has run since
//     the validation (every unfiltered operation of t either Ticks L(t)
//     or replaces it; filtered ones change nothing), so the anchor
//     R(x,t)/W(x) entry, the frame stack, and the watermark of edges
//     into t's node are all exactly as validated;
//   - W(x) unchanged ⟹ the write predecessor is the one validated (a
//     step stale at validation time can only stay stale; an edge proven
//     present in H can only disappear with its source node, which would
//     make the predecessor stale — redundant for a stronger reason);
//   - for writes, the R(x) row version unchanged ⟹ no thread recorded a
//     new read of x, so every validated read predecessor still stands.
//
// A hit therefore costs a handful of word compares — the FastTrack-style
// same-epoch check Section 5's filtering calls for.
type fcEntry struct {
	rdTid int32 // validated reader tid + 1; 0 = empty
	wrTid int32 // validated writer tid + 1; 0 = empty
	rdL   graph.Step
	rdW   graph.Step
	wrL   graph.Step
	wrW   graph.Step
	wrVer uint32 // R(x) row version at write validation
}

// filterFast is the cache-hit check: a few loads and compares, no graph
// access. Only dense variable ids are cached; token variables and cache
// misses fall through to the full validation. Its one caller, run, asks
// before it knows the kind or whether the thread is inside a transaction,
// which is safe: only rd/wr entries exist; cacheStore runs only with the
// filter on, so under NoFilter the cache stays empty; and an entry can
// only match while L(t) is the step it was validated at, which the End
// that takes t out of its transaction has Ticked away — under NoMerge,
// where outside operations are never filtered, none of them can hit.
func (c *optChecker) filterFast(op *trace.Op) bool {
	x, t := op.Target, int32(op.Thread)
	if uint32(x) >= uint32(len(c.fc)) {
		return false
	}
	e := &c.fc[x]
	if op.Kind == trace.Read {
		return e.rdTid == t+1 && e.rdL == c.l.get(t) && e.rdW == c.w.dense.get(x)
	}
	return op.Kind == trace.Write && e.wrTid == t+1 && e.wrL == c.l.get(t) &&
		e.wrW == c.w.dense.get(x) && e.wrVer == c.r.ver(trace.Var(x))
}

// cacheStore records the post-event state after a successful full filter
// validation, so immediate repeats of the same access hit filterFast.
func (c *optChecker) cacheStore(op trace.Op) {
	x := op.Target
	if x < 0 || x >= denseVarLimit {
		return
	}
	if int(x) >= len(c.fc) {
		c.fc = append(c.fc, make([]fcEntry, int(x)+1-len(c.fc))...)
	}
	e := &c.fc[x]
	lt := c.l.get(int32(op.Thread))
	switch op.Kind {
	case trace.Read:
		e.rdTid = int32(op.Thread) + 1
		e.rdL = lt
		e.rdW = c.w.get(trace.Var(x))
	case trace.Write:
		e.wrTid = int32(op.Thread) + 1
		e.wrL = lt
		e.wrW = c.w.get(trace.Var(x))
		e.wrVer = c.r.ver(trace.Var(x))
	}
}

// filterInside decides whether an in-transaction rd/wr is redundant for
// the optimized engine. Conditions, writing n for the thread's active
// transaction node and anchor for the remembered step (R(x,t) for a
// read, W(x) for a write):
//
//  1. anchor is live and belongs to n — the thread already performed
//     this access in this transaction, so every edge the slow path
//     would insert is a dropped self-edge;
//  2. no happens-before edge has arrived at n since the anchor
//     (graph.NoNewerIncoming) — otherwise the skipped Tick could flip
//     a later increasing-cycle comparison;
//  3. no atomic block has opened on this thread since the anchor —
//     otherwise the skipped Tick could flip a frame-start-vs-root
//     comparison during blame refutation;
//  4. every other step the slow path would consult (W(x) for a read;
//     the whole R(x) row for a write) is ⊥, stale, or n itself.
//
// Under 1–4 the slow path would only Tick L(t), drop self-edges, and
// ⊕-refresh table entries whose collapse is invisible to every later
// comparison, so skipping the event entirely is sound.
func (c *optChecker) filterInside(op trace.Op) bool {
	if op.Kind != trace.Read && op.Kind != trace.Write {
		return false
	}
	t := op.Thread
	lt := c.l.get(int32(t)) // live: the active transaction's current step
	if lt == graph.None {
		return false
	}
	x := op.Var()
	var anchor graph.Step
	if op.Kind == trace.Read {
		anchor = c.r.get(x, t)
	} else {
		anchor = c.w.get(x)
	}
	// immediate: the anchor IS the transaction's current step, i.e. the
	// thread has performed no operation at all since this very access —
	// trivially live, with no newer incoming edge and no newer frame.
	// Then a live cross-thread predecessor is also redundant as long as
	// its conflict edge into this transaction is already in H with the
	// same tail (graph.LastEdgeMatches, or the HasEdge scan when another
	// thread's later edge clobbered the memo): the slow path would only
	// ⊕-refresh the edge's head, and with no operation of this node in
	// between, no comparison can land between the stale and fresh head.
	immediate := anchor == lt
	if !immediate {
		// The anchor must be an earlier step of the same incarnation of
		// the live transaction node (a recycled NodeID never aliases:
		// Resolve rejects steps outside the incarnation's time range).
		if anchor == graph.None || anchor.ID() != lt.ID() || c.g.Resolve(anchor) == graph.None {
			return false
		}
		if !c.g.NoNewerIncoming(anchor) {
			return false
		}
		stack := c.stack(t)
		if n := len(stack); n > 0 && stack[n-1].start > anchor.Time() {
			return false
		}
	}
	if op.Kind == trace.Read {
		wx := c.w.get(x)
		return sameTxnOrGone(c.g, wx, lt) ||
			(immediate && (c.g.LastEdgeMatches(wx, lt) || c.g.HasEdge(wx, lt)))
	}
	for _, rs := range c.r.row(x) {
		if !sameTxnOrGone(c.g, rs, lt) &&
			!(immediate && (c.g.LastEdgeMatches(rs, lt) || c.g.HasEdge(rs, lt))) {
			return false
		}
	}
	return true
}

// filterOutside decides whether a non-transactional rd/wr/acq is
// redundant for the optimized engine: merge would provably return the
// thread's own last step unchanged, so the fast path performs the table
// assignments directly — bit-identical state — and skips the merge
// candidate scan, Stats probing, and edge machinery. A Release must
// advance both L(t) and U(m) and is never redundant.
func (c *optChecker) filterOutside(op trace.Op) bool {
	switch op.Kind {
	case trace.Read, trace.Write, trace.Acquire:
	default:
		return false
	}
	t := op.Thread
	lt := c.g.Resolve(c.l.get(int32(t)))
	if lt != graph.None && !c.g.Reusable(lt) {
		return false // active node: merge would refuse to reuse it
	}
	// merge prefers its first candidate, L(t); with every other
	// predecessor ⊥, stale, or L(t)'s own node, it returns resolved L(t)
	// verbatim (or ⊥ when everything is gone).
	switch op.Kind {
	case trace.Acquire:
		if !sameTxnOrGone(c.g, c.u.get(op.Target), lt) {
			return false
		}
		c.l.set(int32(t), lt)
	case trace.Read:
		x := op.Var()
		if !sameTxnOrGone(c.g, c.w.get(x), lt) {
			return false
		}
		c.r.set(x, t, lt)
		c.l.set(int32(t), lt)
	case trace.Write:
		x := op.Var()
		if !sameTxnOrGone(c.g, c.w.get(x), lt) {
			return false
		}
		for _, rs := range c.r.row(x) {
			if !sameTxnOrGone(c.g, rs, lt) {
				return false
			}
		}
		c.w.set(x, lt)
		c.l.set(int32(t), lt)
	}
	return true
}

// filterInside is the basic-engine variant: nodes carry no timestamps,
// so the anchor test is bitwise step equality (timestamps within a
// basic node never advance, and recycled incarnations always differ in
// the time bits). A hit leaves the state bit-identical: the slow path
// would only drop self-edges and rewrite entries with their current
// values. A live cross-thread predecessor is redundant whenever its
// conflict edge is already in H (LastEdgeMatches — with constant
// timestamps the ⊕ refresh rewrites identical values). Stale R entries
// keep their deferred cleanup until the next unfiltered write, which is
// observationally equivalent (they resolve to ⊥ everywhere).
func (c *basicChecker) filterInside(op trace.Op) bool {
	t := op.Thread
	n := c.cur[t]
	switch op.Kind {
	case trace.Read:
		x := op.Var()
		if c.r[x][t] != n {
			return false
		}
		wx := stepOf(c.w, x)
		return sameTxnOrGone(c.g, wx, n) || c.g.LastEdgeMatches(wx, n) || c.g.HasEdge(wx, n)
	case trace.Write:
		x := op.Var()
		if stepOf(c.w, x) != n {
			return false
		}
		for _, rs := range c.r[x] {
			if !sameTxnOrGone(c.g, rs, n) && !c.g.LastEdgeMatches(rs, n) && !c.g.HasEdge(rs, n) {
				return false
			}
		}
		return true
	}
	return false
}

// sameTxnOrGone reports whether predecessor p contributes no edge when
// the current step belongs to cur's node: p is ⊥, stale, or that same
// node (self-edges are dropped by AddEdge). Resolution runs before the
// ID compare so a recycled NodeID can never alias an old step.
func sameTxnOrGone(g *graph.Graph, p, cur graph.Step) bool {
	if p == graph.None {
		return true
	}
	rp := g.Resolve(p)
	return rp == graph.None || (cur != graph.None && rp.ID() == cur.ID())
}
