package core

import (
	"repro/internal/graph"
	"repro/internal/trace"
)

// optChecker is the optimized analysis of Figure 4.
type optChecker struct {
	common
	tables[graph.Step]
	preds []graph.Step
	// Forensics-only state: a reusable provenance buffer parallel to
	// preds, and the open transaction's metadata per thread so its End
	// position can be stamped at exit.
	provBuf  []graph.EdgeProv
	openMeta []*TxnMeta
}

func (c *optChecker) setOpenMeta(t trace.Tid, m *TxnMeta) {
	for int(t) >= len(c.openMeta) {
		c.openMeta = append(c.openMeta, nil)
	}
	c.openMeta[t] = m
}

// run is the engine's one loop. The decision cache is tested first, on
// the operation where it lies, and a hit ends there: hit fails on every
// operation whose kind or state keeps step1 from filtering it (see
// filter.go), so only a miss pays for the copy and the call.
func (c *optChecker) run(ops []trace.Op) {
	if c.done {
		return
	}
	for i := range ops {
		op := &ops[i]
		if c.hit(op) {
			c.noteOp(*op) // the flight recorder sees every operation, even filtered ones
			c.snap.Filtered++
			c.idx++
			continue
		}
		var w *Warning
		if op.Kind == trace.Fork || op.Kind == trace.Join {
			for _, sub := range trace.DesugarOp(*op) {
				if ww := c.step1(sub); ww != nil && w == nil {
					w = ww
				}
			}
		} else {
			w = c.step1(*op)
		}
		c.idx++
		if w != nil && c.done {
			return
		}
	}
}

// hitStore is what step1's filterInside path stores on a hit. It is
// idempotent when serial would instead have hit the cache: the cached
// words already equal what it stores.
func (c *optChecker) hitStore(op trace.Op) { c.store(op) }

// step1 processes one desugared operation that missed the decision cache.
func (c *optChecker) step1(op trace.Op) *Warning {
	c.noteOp(op)
	t := op.Thread
	inside := c.depth(t) > 0
	switch op.Kind {
	case trace.Begin:
		ignored := c.ignores(op.Label)
		if inside || ignored {
			// [INS2 RE-ENTER] for nested blocks; exempted blocks push a
			// marker frame but never start or extend a transaction.
			var start uint64
			if inside {
				s := c.g.Tick(c.l.get(int32(t)))
				c.l.set(int32(t), s)
				start = s.Time()
			}
			c.push(t, frame{op.Label, start, ignored})
			return nil
		}
		// [INS2 ENTER]: fresh transaction node, ordered after the
		// thread's previous transaction.
		meta := c.newMeta(TxnMeta{Thread: t, Label: c.labels.Name(op.Label), Start: c.idx, End: -1})
		s := c.g.NewNode(true, meta)
		if c.rec == nil {
			c.g.AddEdge(c.l.get(int32(t)), s, op) // fresh target: cannot close a cycle
		} else {
			c.addEdgeP(c.l.get(int32(t)), s, op, c.poProv())
			c.setOpenMeta(t, meta)
		}
		c.push(t, frame{op.Label, s.Time(), false})
		c.l.set(int32(t), s)
		return nil

	case trace.End:
		// [INS2 EXIT]: pop the innermost block.
		popped, ok := c.pop(t)
		if !ok {
			return nil
		}
		if inside {
			s := c.g.Tick(c.l.get(int32(t)))
			c.l.set(int32(t), s)
			if !popped.ignored && c.depth(t) == 0 {
				c.g.Finish(s)
				if c.rec != nil && int(t) < len(c.openMeta) && c.openMeta[t] != nil {
					c.openMeta[t].End = c.idx
					c.openMeta[t] = nil
				}
			}
		}
		return nil
	}

	if inside {
		if !c.opts.NoFilter && c.filterInside(op) {
			c.store(op)
			c.snap.Filtered++
			return nil
		}
		return c.insideOp(op)
	}
	if c.opts.NoMerge {
		// [INS OUTSIDE]: wrap the operation in its own unary transaction.
		s := c.g.NewNode(true, c.newMeta(TxnMeta{Thread: t, Start: c.idx, Unary: true, End: c.idx}))
		if c.rec == nil {
			c.g.AddEdge(c.l.get(int32(t)), s, op)
		} else {
			c.addEdgeP(c.l.get(int32(t)), s, op, c.poProv())
		}
		c.push(t, frame{0, s.Time(), false})
		c.l.set(int32(t), s)
		w := c.insideOp(op)
		s = c.g.Tick(c.l.get(int32(t)))
		c.pop(t) // only the wrapper frame
		c.l.set(int32(t), s)
		c.g.Finish(s)
		return w
	}
	if !c.opts.NoFilter && c.filterOutside(op) {
		// The fast path performed the table stores itself, so the
		// provenance tables must advance with them.
		c.access(op)
		c.store(op)
		c.snap.Filtered++
		return nil
	}
	return c.outsideOp(op)
}

// insideOp applies the [INS2 INSIDE ...] rules of Figure 4.
func (c *optChecker) insideOp(op trace.Op) *Warning {
	t := op.Thread
	s := c.g.Tick(c.l.get(int32(t)))
	c.l.set(int32(t), s)
	switch op.Kind {
	case trace.Acquire:
		var cyc *graph.Cycle
		if c.rec == nil {
			cyc = c.g.AddEdge(c.u.get(op.Target), s, op)
		} else {
			cyc = c.addEdgeP(c.u.get(op.Target), s, op, c.tailProv(c.rec.LastRelease(op.Lock())))
		}
		if cyc != nil {
			return c.violation(op, cyc)
		}
	case trace.Release:
		c.u.set(op.Target, s)
		c.access(op)
	case trace.Read:
		x := op.Var()
		var cyc *graph.Cycle
		if c.rec == nil {
			cyc = c.g.AddEdge(c.w.get(x), s, op)
		} else {
			cyc = c.addEdgeP(c.w.get(x), s, op, c.tailProv(c.rec.LastWrite(x)))
		}
		c.r.set(x, t, s)
		c.access(op)
		if cyc != nil {
			return c.violation(op, cyc)
		}
	case trace.Write:
		x := op.Var()
		// A write conflicts with every prior read and the prior write, so
		// several edges into s may each close a cycle. Under the paper's
		// ⊕ semantics the per-node-pair edge carries the latest
		// timestamps, so an increasing cycle (which licenses blame,
		// Section 4.3) is preferred over whichever rejection came first.
		var cyc *graph.Cycle
		keep := func(cy *graph.Cycle) {
			if cy == nil {
				return
			}
			if cyc == nil || (!cyc.Increasing && cy.Increasing) {
				cyc = cy
			}
		}
		// Most of a row is ⊥ — the threads that never read x — and an edge
		// from ⊥ is none: those entries are not worth the call.
		if c.rec == nil {
			for _, rs := range c.r.row(x) {
				if rs != graph.None {
					keep(c.g.AddEdge(rs, s, op))
				}
			}
			keep(c.g.AddEdge(c.w.get(x), s, op))
		} else {
			for t2, rs := range c.r.row(x) {
				if rs != graph.None {
					keep(c.addEdgeP(rs, s, op, c.tailProv(c.rec.LastRead(x, trace.Tid(t2)))))
				}
			}
			keep(c.addEdgeP(c.w.get(x), s, op, c.tailProv(c.rec.LastWrite(x))))
		}
		c.w.set(x, s)
		c.access(op)
		if cyc != nil {
			return c.violation(op, cyc)
		}
	}
	return nil
}

// outsideOp applies the [INS2 OUTSIDE ...] rules of Figure 4, using merge
// to avoid allocating nodes for unary transactions.
func (c *optChecker) outsideOp(op trace.Op) *Warning {
	t := op.Thread
	switch op.Kind {
	case trace.Acquire:
		preds := append(c.preds[:0], c.l.get(int32(t)), c.u.get(op.Target))
		var provs []graph.EdgeProv
		if c.rec != nil {
			provs = append(c.provBuf[:0], c.poProv(), c.tailProv(c.rec.LastRelease(op.Lock())))
			c.provBuf = provs[:0]
		}
		s := c.merge(op, preds, provs)
		c.preds = preds[:0]
		c.l.set(int32(t), s)
	case trace.Release:
		s := c.g.Tick(c.l.get(int32(t)))
		c.l.set(int32(t), s)
		c.u.set(op.Target, s)
		c.access(op)
	case trace.Read:
		x := op.Var()
		preds := append(c.preds[:0], c.l.get(int32(t)), c.w.get(x))
		var provs []graph.EdgeProv
		if c.rec != nil {
			provs = append(c.provBuf[:0], c.poProv(), c.tailProv(c.rec.LastWrite(x)))
			c.provBuf = provs[:0]
		}
		s := c.merge(op, preds, provs)
		c.preds = preds[:0]
		c.r.set(x, t, s)
		c.l.set(int32(t), s)
		c.access(op)
	case trace.Write:
		x := op.Var()
		// L(t) first so merge prefers reusing the thread's own last node.
		preds := append(c.preds[:0], c.l.get(int32(t)))
		preds = append(preds, c.r.row(x)...)
		preds = append(preds, c.w.get(x))
		var provs []graph.EdgeProv
		if c.rec != nil {
			provs = append(c.provBuf[:0], c.poProv())
			for t2 := range c.r.row(x) {
				provs = append(provs, c.tailProv(c.rec.LastRead(x, trace.Tid(t2))))
			}
			provs = append(provs, c.tailProv(c.rec.LastWrite(x)))
			c.provBuf = provs[:0]
		}
		s := c.merge(op, preds, provs)
		c.preds = preds[:0]
		c.w.set(x, s)
		c.l.set(int32(t), s)
		c.access(op)
	}
	return nil
}

// merge wraps graph.MergeP, attaching unary-transaction metadata only
// when a node was actually allocated. provs, non-nil only under
// forensics, annotates the edge from each predecessor.
func (c *optChecker) merge(op trace.Op, preds []graph.Step, provs []graph.EdgeProv) graph.Step {
	s, fresh := c.g.MergeP(preds, op, nil, provs)
	if fresh {
		c.g.SetData(s, c.newMeta(TxnMeta{Thread: op.Thread, Start: c.idx, Unary: true, End: c.idx}))
	}
	return s
}

// violation builds a Warning from a detected cycle, applying the blame
// assignment of Section 4.3. The completing transaction D is the current
// transaction of op's thread; if the cycle is increasing, D is not
// self-serializable and every open atomic block of D whose first operation
// precedes the cycle's root operation is refuted.
func (c *optChecker) violation(op trace.Op, cyc *graph.Cycle) *Warning {
	w := c.newWarning(op, cyc)
	if w.Increasing = cyc.Increasing; w.Increasing {
		if meta, ok := cyc.CompleterData().(*TxnMeta); ok {
			w.Blamed = meta
		}
		root, stack := cyc.RootTime(), c.stack(op.Thread)
		refuted := c.refuted.Take(len(stack))[:0]
		for _, f := range stack {
			if f.ignored {
				continue // exempted by the atomicity specification
			}
			if f.start > root {
				break // inner blocks started after the root op: serializable
			}
			refuted = append(refuted, c.labels.Name(f.label))
		}
		if len(refuted) > 0 {
			w.Refuted = refuted[:len(refuted):len(refuted)]
		}
	}
	return c.record(w)
}
