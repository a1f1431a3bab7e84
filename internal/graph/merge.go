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
// data is attached to a freshly allocated node, if any.
func (g *Graph) Merge(preds []Step, op trace.Op, data any) Step {
	s, _ := g.MergeP(preds, op, data, nil)
	return s
}

// MergeP is Merge carrying per-predecessor access-pair provenance:
// provs[i], when provs is non-nil, annotates the edge drawn from preds[i]
// into a freshly allocated node. The forensics-enabled engines use it so
// even the edges into merged unary transactions name their accesses.
// fresh reports whether the result is such a node.
func (g *Graph) MergeP(preds []Step, op trace.Op, data any, provs []EdgeProv) (_ Step, fresh bool) {
	live := g.scratch[:0] // reused buffer; callers do not retain it
	liveProv := g.provScratch[:0]
	for i, s := range preds {
		if s = g.Resolve(s); s != None {
			live = append(live, s)
			if provs != nil {
				liveProv = append(liveProv, provs[i])
			}
		}
	}
	g.scratch = live[:0]
	g.provScratch = liveProv[:0]
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
	for i, p := range live {
		var prov *EdgeProv
		if i < len(liveProv) {
			prov = &liveProv[i]
		}
		// Edges into a brand-new node with no outgoing edges can never
		// close a cycle.
		if c := g.AddEdgeP(p, s, op, prov); c != nil {
			panic("graph: impossible cycle through fresh merge node")
		}
	}
	return s, true
}
