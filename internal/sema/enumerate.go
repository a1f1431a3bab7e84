package sema

import "repro/internal/trace"

// Interleavings enumerates every feasible trace of the program (every
// maximal interleaving the [STD STEP] relation admits), invoking visit on
// each; visit returning false stops the enumeration early. The number of
// interleavings is exponential, so limit bounds how many are visited
// (0 = no bound). It returns the number visited and whether enumeration
// was exhaustive (neither stopped by visit nor by the limit; deadlocked
// branches still count as exhaustively explored — their partial traces
// are visited).
//
// This is a tiny model checker: workload idioms whose atomicity must hold
// in *every* schedule (barrier phases, fork/join ownership, flag
// handoffs) are validated against it in the tests.
func Interleavings(p Program, limit int, visit func(tr trace.Trace) bool) (visited int, exhaustive bool) {
	tids := p.threads()
	pos := map[trace.Tid]int{} // a thread's place in tids, ops and pc
	ops := make([][]trace.Op, len(tids))
	// Fork/join structure, which no trace prefix can know: a forked thread
	// may not step before its fork executes; a join is enabled only once
	// the target has finished.
	type forkSite struct{ parent, index int }
	forkedBy := map[trace.Tid]forkSite{}
	for k, t := range tids {
		pos[t], ops[k] = k, p[t]
		for i, op := range p[t] {
			if op.Kind == trace.Fork {
				forkedBy[op.Other()] = forkSite{parent: k, index: i}
			}
		}
	}
	pc := make([]int, len(tids))
	var w trace.WellFormed
	var cur trace.Trace
	exhaustive = true

	var rec func() bool // false = stop everything
	rec = func() bool {
		if limit > 0 && visited >= limit {
			exhaustive = false
			return false
		}
		progressed := false
		for k, t := range tids {
			i := pc[k]
			if i >= len(ops[k]) {
				continue
			}
			op := ops[k][i]
			if fs, ok := forkedBy[t]; ok && pc[fs.parent] <= fs.index {
				continue // not forked yet
			}
			if op.Kind == trace.Join && pc[pos[op.Other()]] < len(p[op.Other()]) || w.Step(op) != nil {
				continue
			}
			progressed = true
			pc[k] = i + 1
			cur = append(cur, op)
			ok := rec()
			cur = cur[:len(cur)-1]
			pc[k] = i
			w.Undo(op)
			if !ok {
				return false
			}
		}
		if !progressed {
			// Maximal trace (complete or deadlocked prefix).
			visited++
			out := make(trace.Trace, len(cur))
			copy(out, cur)
			if !visit(out) {
				exhaustive = false
				return false
			}
		}
		return true
	}
	rec()
	return visited, exhaustive
}

// AllTraces reports whether every feasible trace of the program (up to
// limit interleavings) satisfies pred; it returns the first failing
// trace, and whether the enumeration covered everything.
func AllTraces(p Program, limit int, pred func(trace.Trace) bool) (ok bool, witness trace.Trace, exhaustive bool) {
	ok = true
	_, exhaustive = Interleavings(p, limit, func(tr trace.Trace) bool {
		if !pred(tr) {
			ok = false
			witness = tr
			return false
		}
		return true
	})
	return ok, witness, exhaustive
}
