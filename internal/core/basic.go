package core

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/trace"
)

func stepOf[K comparable](m map[K]graph.Step, k K) graph.Step {
	if s, ok := m[k]; ok {
		return s
	}
	return graph.None
}

// sortedTids returns m's keys in increasing order, for deterministic
// edge-insertion sequences.
func sortedTids(m map[trace.Tid]graph.Step) []trace.Tid {
	ts := make([]trace.Tid, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	slices.Sort(ts)
	return ts
}

// basicChecker is the initial analysis of Figure 2: one graph node per
// transaction, non-transactional operations wrapped in unary transactions
// by [INS OUTSIDE], no merging and no timestamps. It reports exactly the
// same non-serializable traces as the optimized engine (invariant 1 of
// DESIGN.md) but performs no blame assignment.
//
// Figure 2 predates nesting, so nested atomic blocks are flattened on
// the block stack C (frames of possibly spec-exempted blocks): only the
// outermost non-exempted begin allocates a transaction node.
type basicChecker struct {
	common
	blocks
	cur     map[trace.Tid]graph.Step               // C of Figure 2: the running transaction
	l       map[trace.Tid]graph.Step               // L
	u       map[trace.Lock]graph.Step              // U
	r       map[trace.Var]map[trace.Tid]graph.Step // R
	w       map[trace.Var]graph.Step               // W
	curMeta map[trace.Tid]*TxnMeta                 // forensics: open txn metadata
}

// run is the engine's one loop.
func (c *basicChecker) run(ops []trace.Op) {
	if c.done {
		return
	}
	for i := range ops {
		op := ops[i]
		var w *Warning
		if op.Kind == trace.Fork || op.Kind == trace.Join {
			for _, sub := range trace.DesugarOp(op) {
				if ww := c.step1(sub); ww != nil && w == nil {
					w = ww
				}
			}
		} else {
			w = c.step1(op)
		}
		c.idx++
		if w != nil && c.done {
			return
		}
	}
}

// hitStore stores nothing: the basic engine's filter keeps no cache.
func (c *basicChecker) hitStore(trace.Op) {}

func (c *basicChecker) step1(op trace.Op) *Warning {
	c.noteOp(op)
	t := op.Thread
	switch op.Kind {
	case trace.Begin:
		ignored := c.ignores(op.Label)
		if !ignored && c.depth(t) == 0 {
			c.enter(t, c.newMeta(TxnMeta{Thread: t, Label: c.labels.Name(op.Label), Start: c.idx, End: -1}), op)
		}
		c.push(t, frame{label: op.Label, ignored: ignored})
		return nil
	case trace.End:
		if popped, ok := c.pop(t); ok && !popped.ignored && c.depth(t) == 0 {
			c.exit(t)
		}
		return nil
	}
	if c.depth(t) > 0 {
		if !c.opts.NoFilter && c.filterInside(op) {
			c.snap.Filtered++
			return nil
		}
		return c.action(op)
	}
	// [INS OUTSIDE]: wrap in a fresh unary transaction.
	c.enter(t, c.newMeta(TxnMeta{Thread: t, Start: c.idx, Unary: true, End: -1}), op)
	w := c.action(op)
	c.exit(t)
	return w
}

// enter is [INS ENTER]: allocate a fresh node ordered after L(t).
func (c *basicChecker) enter(t trace.Tid, meta *TxnMeta, op trace.Op) {
	n := c.g.NewNode(true, meta)
	if c.rec == nil {
		c.g.AddEdge(stepOf(c.l, t), n, op) // fresh target: cannot close a cycle
	} else {
		c.addEdgeP(stepOf(c.l, t), n, op, c.poProv())
		c.curMeta[t] = meta
	}
	c.cur[t] = n
}

// exit is [INS EXIT].
func (c *basicChecker) exit(t trace.Tid) {
	n := c.cur[t]
	delete(c.cur, t)
	c.l[t] = n
	c.g.Finish(n)
	if c.rec != nil {
		if m := c.curMeta[t]; m != nil {
			m.End = c.idx
			delete(c.curMeta, t)
		}
	}
}

// action applies [INS ACQUIRE/RELEASE/READ/WRITE] inside transaction C(t).
func (c *basicChecker) action(op trace.Op) *Warning {
	t := op.Thread
	n := c.cur[t]
	switch op.Kind {
	case trace.Acquire:
		var cyc *graph.Cycle
		if c.rec == nil {
			cyc = c.g.AddEdge(stepOf(c.u, op.Lock()), n, op)
		} else {
			cyc = c.addEdgeP(stepOf(c.u, op.Lock()), n, op, c.tailProv(c.rec.LastRelease(op.Lock())))
		}
		if cyc != nil {
			return c.violation(op, cyc)
		}
	case trace.Release:
		c.u[op.Lock()] = n
		c.access(op)
	case trace.Read:
		x := op.Var()
		var cyc *graph.Cycle
		if c.rec == nil {
			cyc = c.g.AddEdge(stepOf(c.w, x), n, op)
		} else {
			cyc = c.addEdgeP(stepOf(c.w, x), n, op, c.tailProv(c.rec.LastWrite(x)))
		}
		m := c.r[x]
		if m == nil {
			m = map[trace.Tid]graph.Step{}
			c.r[x] = m
		}
		m[t] = n
		c.access(op)
		if cyc != nil {
			return c.violation(op, cyc)
		}
	case trace.Write:
		x := op.Var()
		var cyc *graph.Cycle
		// Iterate readers in tid order: map order would make the edge
		// insertion sequence — and hence which cycle a violation reports —
		// vary from run to run, which the differential suites forbid.
		for _, t2 := range sortedTids(c.r[x]) {
			rs := c.r[x][t2]
			if c.g.Resolve(rs) == graph.None {
				delete(c.r[x], t2)
				continue
			}
			var cy *graph.Cycle
			if c.rec == nil {
				cy = c.g.AddEdge(rs, n, op)
			} else {
				cy = c.addEdgeP(rs, n, op, c.tailProv(c.rec.LastRead(x, t2)))
			}
			if cy != nil && cyc == nil {
				cyc = cy
			}
		}
		var cy *graph.Cycle
		if c.rec == nil {
			cy = c.g.AddEdge(stepOf(c.w, x), n, op)
		} else {
			cy = c.addEdgeP(stepOf(c.w, x), n, op, c.tailProv(c.rec.LastWrite(x)))
		}
		if cy != nil && cyc == nil {
			cyc = cy
		}
		c.w[x] = n
		c.access(op)
		if cyc != nil {
			return c.violation(op, cyc)
		}
	}
	return nil
}

// violation records a warning. The basic engine has no timestamps, so no
// blame is assigned (Section 4.3 is an extension of the optimized engine).
func (c *basicChecker) violation(op trace.Op, cyc *graph.Cycle) *Warning {
	return c.record(c.newWarning(op, cyc))
}
