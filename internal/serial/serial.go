// Package serial provides offline reference checkers for
// conflict-serializability, used as independent oracles to validate the
// online Velodrome analysis (soundness and completeness, DESIGN.md
// invariant 1).
//
// Two checkers are provided with deliberately different foundations:
//
//   - Check builds the transactional happens-before graph of the trace and
//     looks for a cycle (the database-theory characterization the paper
//     leverages, Bernstein et al. 1987).
//
//   - SwapCheck searches directly for an equivalent serial trace, i.e. a
//     linear extension of the conflict order in which every transaction's
//     operations are contiguous. It is exponential and only suitable for
//     small traces, but shares no code or theory shortcut with Check.
//
// # Why Check's sparse graph decides the same question
//
// The definition draws an edge txn(i) → txn(j) for every pair i < j of
// conflicting operations of the desugared trace, which is quadratic in the
// trace. Check instead makes one pass and gives each operation j at most
// these edges into its transaction, each from an earlier operation i:
//
//   - from the previous operation of j's thread;
//   - for an acquire or release, from the previous acquire or release of
//     the same lock;
//   - for a read, from the last write of the variable;
//   - for a write, from the last write of the variable and from every
//     read of it since that write (a read whose transaction made the
//     previous such read is not recorded again: its edge would be the
//     same transaction edge).
//
// Each of these i → j is a conflicting pair with i < j, so every edge
// drawn is an edge of the definition. Conversely, every conflicting pair
// i < j is joined by a path of drawn edges through operations between
// them:
//
//   - same thread: the thread's chain of operations from i to j;
//   - same lock: the lock's chain of acquires and releases from i to j;
//   - write i, read j: the chain of writes from i to the last write
//     before j, then that write → j;
//   - write i, write j: the chain of writes from i to j;
//   - read i, write j: i → the first write after i (i is among that
//     write's reads since the previous write), then the chain of writes
//     to j.
//
// Desugaring leaves no fork or join, so these are all the conflicts. Both
// graphs therefore have the same reachability between operations, hence
// between transactions: a cycle of the definition's graph is a closed walk
// of drawn edges that leaves its first transaction, so it contains a cycle
// of drawn edges, and a cycle of drawn edges is a cycle of the definition's
// graph. Each operation draws at most one thread edge and one lock or
// last-write edge, and each read is drawn from once more, by the next
// write, so the graph has at most 3n edges on n operations.
package serial

import (
	"slices"

	"repro/internal/trace"
)

// Transactions partitions the trace's operations into transactions:
// each operation is assigned the (per-trace unique) id of the transaction
// containing it. Outermost atomic blocks form one transaction each;
// operations outside any block form unary transactions. The returned slice
// is indexed by operation position; ids are dense starting at 0.
func Transactions(tr trace.Trace) (txnOf []int, count int) {
	txnOf = make([]int, len(tr))
	depth := map[trace.Tid]int{}
	cur := map[trace.Tid]int{}
	next := 0
	for i, op := range tr {
		t := op.Thread
		switch op.Kind {
		case trace.Begin:
			if depth[t] == 0 {
				cur[t] = next
				next++
			}
			depth[t]++
			txnOf[i] = cur[t]
		case trace.End:
			txnOf[i] = cur[t]
			depth[t]--
		default:
			if depth[t] > 0 {
				txnOf[i] = cur[t]
			} else {
				txnOf[i] = next
				next++
			}
		}
	}
	return txnOf, next
}

// Check reports whether the trace is conflict-serializable by building its
// transactional happens-before graph in one pass (see the package comment)
// and testing it for acyclicity. Fork/Join operations are desugared first.
// The returned witness is a list of transaction ids forming a cycle, each
// with an edge to the next and the last to the first (nil if
// serializable); the same trace always yields the same witness.
func Check(tr trace.Trace) (serializable bool, cycle []int) {
	cycle, _ = check(tr)
	return cycle == nil, cycle
}

// check is Check returning the witness and the number of edges drawn,
// transaction-internal ones included.
func check(tr trace.Trace) (cycle []int, drawn int) {
	tr = tr.Desugar()
	txnOf, n := Transactions(tr)
	var g edges
	type access struct {
		lastWrite int32   // transaction of the last write, -1 before any
		reads     []int32 // transactions that read since, adjacent repeats dropped
	}
	lastOfThread := map[trace.Tid]int32{}
	lastOfLock := map[trace.Lock]int32{}
	varIndex := map[trace.Var]int32{}
	var vars []access
	for j, op := range tr {
		to := int32(txnOf[j])
		if from, ok := lastOfThread[op.Thread]; ok {
			g.draw(from, to)
		}
		lastOfThread[op.Thread] = to
		switch op.Kind {
		case trace.Acquire, trace.Release:
			if from, ok := lastOfLock[op.Lock()]; ok {
				g.draw(from, to)
			}
			lastOfLock[op.Lock()] = to
		case trace.Read, trace.Write:
			k, ok := varIndex[op.Var()]
			if !ok {
				k = int32(len(vars))
				varIndex[op.Var()] = k
				vars = append(vars, access{lastWrite: -1})
			}
			a := &vars[k]
			if a.lastWrite >= 0 {
				g.draw(a.lastWrite, to)
			}
			if op.Kind == trace.Read {
				if len(a.reads) == 0 || a.reads[len(a.reads)-1] != to {
					a.reads = append(a.reads, to)
				}
				break
			}
			for _, from := range a.reads {
				g.draw(from, to)
			}
			a.reads = a.reads[:0]
			a.lastWrite = to
		}
	}
	return g.cycle(n), g.drawn
}

// edges are the transaction graph's edges in the order they were drawn.
type edges struct {
	drawn    int     // every edge drawn, transaction-internal ones included
	from, to []int32 // the others
}

// draw records a → b, which is transaction-internal, and dropped, when
// a == b.
func (g *edges) draw(a, b int32) {
	g.drawn++
	if a != b {
		g.from = append(g.from, a)
		g.to = append(g.to, b)
	}
}

// successors sorts the edges stably by source over transactions 0..n-1:
// u's successors are succ[start[u]:start[u+1]], in drawing order.
func (g *edges) successors(n int) (start, succ []int32) {
	start = make([]int32, n+1)
	for _, u := range g.from {
		start[u+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	succ = make([]int32, len(g.to))
	next := slices.Clone(start[:n])
	for e, u := range g.from {
		succ[next[u]] = g.to[e]
		next[u]++
	}
	return start, succ
}

// cycle returns the first cycle an iterative depth-first search over
// transactions 0..n-1 finds, taking roots in id order and successors in
// drawing order, or nil.
func (g *edges) cycle(n int) []int {
	start, succ := g.successors(n)
	const (
		white = iota
		gray
		black
	)
	color := make([]uint8, n)
	next := slices.Clone(start[:n]) // each node's next successor to visit
	var path []int32
	for root := int32(0); int(root) < n; root++ {
		if color[root] != white {
			continue
		}
		color[root] = gray
		path = append(path[:0], root)
		for len(path) > 0 {
			u := path[len(path)-1]
			if next[u] == start[u+1] {
				color[u] = black
				path = path[:len(path)-1]
				continue
			}
			v := succ[next[u]]
			next[u]++
			switch color[v] {
			case white:
				color[v] = gray
				path = append(path, v)
			case gray:
				// v is on the path: the path from v to u, closed by u → v.
				path = path[slices.Index(path, v):]
				cyc := make([]int, len(path))
				for k, w := range path {
					cyc[k] = int(w)
				}
				return cyc
			}
		}
	}
	return nil
}
