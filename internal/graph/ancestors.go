package graph

import "slices"

// Ancestor tracking (Section 5): "For each node, we maintain a set of
// ancestors of that node. This ancestor set allows us to immediately
// detect when a cycle is about to be added to the graph", keeps the graph
// acyclic for reference-counting GC, and makes the merge function's
// happens-before queries O(1).
//
// Entries are stamped with the ancestor's incarnation (birth time) so
// that collected-and-recycled nodes invalidate lazily: a stale entry is
// simply skipped and compacted away on the next touch, with no eager
// purge walk at collection time.

// ancEntry records one ancestor node and the incarnation it referred to.
type ancEntry struct {
	id    NodeID
	birth uint64
}

// liveEntry reports whether e still names the current incarnation.
func (g *Graph) liveEntry(e ancEntry) bool {
	nd := &g.nodes[e.id]
	return nd.inUse && nd.birthTime == e.birth
}

// isAncestor reports whether node a (current incarnation) is an ancestor
// of node b, compacting stale entries as a side effect.
func (g *Graph) isAncestor(a, b NodeID) bool {
	nd := &g.nodes[b]
	out := nd.anc[:0]
	found := false
	for _, e := range nd.anc {
		if !g.liveEntry(e) {
			continue
		}
		out = append(out, e)
		if e.id == a {
			found = true
		}
	}
	nd.anc = out
	return found
}

// ancMark is addAncestors' membership stamp for one node id: during the
// merge numbered gen, the set being merged into holds an entry for that
// id with this birth. Stamps of earlier merges are stale by their number,
// so nothing is ever cleared.
type ancMark struct {
	gen   uint64
	birth uint64
}

// addAncestors merges entries into n's ancestor set and, when anything
// new arrived, pushes the same entries to n's descendants. The graph is
// acyclic, so the walk terminates; it prunes wherever a node already
// knows every entry. Membership is tested against stamps laid over the
// set once per merge, not by scanning the set once per entry: a node
// joining a chain of k open-transaction ancestors costs O(k), where the
// scan made it O(k²). ancReads counts the entries read, scans included,
// so that bound is tested as a count and not as a duration.
func (g *Graph) addAncestors(n NodeID, entries []ancEntry) {
	nd := &g.nodes[n]
	g.ancGen++
	gen, marks := g.ancGen, g.ancMarks
	g.ancReads += uint64(len(nd.anc) + len(entries))
	for _, have := range nd.anc {
		marks[have.id] = ancMark{gen, have.birth}
	}
	added := false
	for _, e := range entries {
		if e.id == n {
			continue // self-entries cannot arise on an acyclic graph
		}
		// A stamp holds one birth per id. The set can also hold a stale
		// entry for an earlier incarnation of the same id; only then
		// does a mismatch need the scan.
		m := &marks[e.id]
		if m.gen == gen {
			if m.birth == e.birth {
				continue
			}
			g.ancReads += uint64(len(nd.anc))
			if slices.Contains(nd.anc, e) {
				continue
			}
		}
		*m = ancMark{gen, e.birth}
		nd.anc = append(nd.anc, e)
		added = true
	}
	if !added {
		return
	}
	for _, e := range nd.out {
		g.addAncestors(e.to, entries)
	}
}

// ancestorsPlusSelf returns n's live ancestor entries plus n itself, for
// propagation along a new outgoing edge. The returned slice is a reusable
// graph-level buffer: callers must consume it before the next graph call.
func (g *Graph) ancestorsPlusSelf(n NodeID) []ancEntry {
	nd := &g.nodes[n]
	out := g.ancScratch[:0]
	keep := nd.anc[:0]
	for _, e := range nd.anc {
		if g.liveEntry(e) {
			out = append(out, e)
			keep = append(keep, e)
		}
	}
	nd.anc = keep
	out = append(out, ancEntry{id: n, birth: nd.birthTime})
	g.ancScratch = out
	return out
}
