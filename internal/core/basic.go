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
// Figure 2 predates nesting, so nested atomic blocks are flattened with a
// per-thread stack of (possibly spec-exempted) markers: only the
// outermost non-exempted begin allocates a transaction node.
type basicChecker struct {
	common
	cur     map[trace.Tid]graph.Step               // C
	blocks  map[trace.Tid][]bool                   // open blocks: exempted?
	l       map[trace.Tid]graph.Step               // L
	u       map[trace.Lock]graph.Step              // U
	r       map[trace.Var]map[trace.Tid]graph.Step // R
	w       map[trace.Var]graph.Step               // W
	curMeta map[trace.Tid]*TxnMeta                 // forensics: open txn metadata
}

func (c *basicChecker) init() {
	if c.cur == nil {
		c.cur = map[trace.Tid]graph.Step{}
		c.blocks = map[trace.Tid][]bool{}
		c.l = map[trace.Tid]graph.Step{}
		c.u = map[trace.Lock]graph.Step{}
		c.r = map[trace.Var]map[trace.Tid]graph.Step{}
		c.w = map[trace.Var]graph.Step{}
		c.curMeta = map[trace.Tid]*TxnMeta{}
	}
}

// checkedDepth counts open non-exempted blocks of t.
func (c *basicChecker) checkedDepth(t trace.Tid) int {
	n := 0
	for _, ig := range c.blocks[t] {
		if !ig {
			n++
		}
	}
	return n
}

// Step implements Checker.
func (c *basicChecker) Step(op trace.Op) *Warning {
	if c.opts.Spans == nil || !c.sampled() {
		return c.step(op)
	}
	t := c.startTimed()
	w := c.step(op)
	c.endTimed(t)
	return w
}

// StepBatch implements Checker.
func (c *basicChecker) StepBatch(ops []trace.Op, warn func(*Warning)) { stepEach(c, ops, warn) }

// SkipFiltered implements Checker: it consumes op as a filter hit
// decided by the pipeline's sharded prefilter, replaying the basic
// engine's filterInside hit path — flight-recorder note, filter
// accounting, index advance — so state stays bit-identical to a serial
// filter hit (the basic engine stores nothing on a hit).
func (c *basicChecker) SkipFiltered(op trace.Op) bool {
	c.init()
	if c.done || c.opts.NoFilter {
		return false
	}
	if c.opts.Spans == nil || !c.sampled() {
		c.skipFiltered(op)
		return true
	}
	t := c.startTimed()
	c.skipFiltered(op)
	c.endTimed(t)
	return true
}

func (c *basicChecker) skipFiltered(op trace.Op) {
	c.noteOp(op)
	c.snap.Filtered++
	c.idx++
}

// step is the uninstrumented Step body.
func (c *basicChecker) step(op trace.Op) *Warning {
	c.init()
	if c.done {
		return nil
	}
	defer func() { c.idx++ }()
	if op.Kind == trace.Fork || op.Kind == trace.Join {
		var w *Warning
		for _, sub := range trace.DesugarOp(op) {
			if ww := c.step1(sub); ww != nil && w == nil {
				w = ww
			}
		}
		return w
	}
	return c.step1(op)
}

func (c *basicChecker) step1(op trace.Op) *Warning {
	c.noteOp(op)
	t := op.Thread
	switch op.Kind {
	case trace.Begin:
		ignored := c.opts.Ignore[op.Label]
		wasInside := c.checkedDepth(t) > 0
		c.blocks[t] = append(c.blocks[t], ignored)
		if !ignored && !wasInside {
			c.enter(t, c.newMeta(TxnMeta{Thread: t, Label: op.Label, Start: c.idx, End: -1}), op)
		}
		return nil
	case trace.End:
		bs := c.blocks[t]
		if len(bs) == 0 {
			return nil // an end that closes nothing: an ill-formed stream is not a panic
		}
		popped := bs[len(bs)-1]
		c.blocks[t] = bs[:len(bs)-1]
		if !popped && c.checkedDepth(t) == 0 {
			c.exit(t)
		}
		return nil
	}
	if c.checkedDepth(t) > 0 {
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
