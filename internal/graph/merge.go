package graph

import "repro/internal/trace"

// Merge implements the merge function of Figures 3 and 4: given the
// predecessor steps of a unary (non-transactional) operation, it returns a
// step that happens-after all of them, allocating a fresh node only when
// no existing node can be reused.
//
//   - If every predecessor is ⊥ (or stale), the result is ⊥: the unary
//     transaction would be collected as soon as it finished, so it is
//     never allocated at all.
//   - If some predecessor s_j happens-after (or equals) every other
//     predecessor, s_j's node is reused and no allocation occurs.
//   - Otherwise a fresh inactive node is allocated with an edge from each
//     predecessor.
//
// Deviation from the paper's literal definition (see DESIGN.md): a
// candidate s_j is reused only if its node is not a currently active
// transaction. Reusing an active node of another thread folds future
// conflicts with that transaction into filtered self-edges and can
// silently drop a real cycle; the restriction preserves soundness and is
// what the prose of Section 4.2 (which only ever reuses L(t)) implies.
//
// Candidates earlier in preds are preferred, so callers pass L(t) first.
// data is attached to a freshly allocated node, if any, and fresh
// reports whether the result is such a node. provs, when non-nil,
// annotates the edge drawn from each preds[i] into a fresh node with
// provs[i] (see AddEdge), so even the edges into merged unary
// transactions name their accesses under forensics.
func (g *Graph) Merge(preds []Step, op trace.Op, data any, provs []EdgeProv) (_ Step, fresh bool) {
	live := g.scratch[:0] // reused buffer; callers do not retain it
	for _, s := range preds {
		if s = g.Resolve(s); s != None {
			live = append(live, s)
		}
	}
	g.scratch = live[:0]
	if len(live) == 0 {
		return None, false
	}
	for _, cand := range live {
		if g.active(cand) {
			continue
		}
		ok := true
		for _, other := range live {
			if !g.HappensBeforeOrSame(other, cand) {
				ok = false
				break
			}
		}
		if ok {
			g.stats.Merged++
			return cand, false
		}
	}
	s := g.NewNode(false, data)
	for i, p := range preds {
		if p == None {
			continue // most of a write's R(x,·) row: not worth the call
		}
		var prov *EdgeProv
		if provs != nil {
			prov = &provs[i]
		}
		// Edges into a brand-new node with no outgoing edges can never
		// close a cycle; AddEdge drops those from a stale step.
		if c := g.AddEdge(p, s, op, prov); c != nil {
			panic("graph: impossible cycle through fresh merge node")
		}
	}
	return s, true
}
