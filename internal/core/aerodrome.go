package core

import (
	"repro/internal/trace"
	"repro/internal/vc"
)

// This file implements the AeroDrome engine: single-pass atomicity
// checking with vector clocks and no happens-before graph, after Mathur
// & Viswanathan, "Atomicity Checking in Linear Time using Vector Clocks"
// (see PAPERS.md). Where Velodrome inserts graph edges and searches for
// cycles, AeroDrome keeps one clock object per transaction and detects
// the first violation as a clock comparison:
//
//   - Every operation of thread t ticks t's component of the running
//     transaction's clock, so a transaction owns the tick interval
//     [begin, now] of its thread.
//   - The tables U (last release per lock; L in the AeroDrome paper), W
//     (last write per variable) and R (last read per variable and
//     thread) store *pointers* to transaction objects, not snapshots —
//     the optimized engine's tables (state.go) over a different element.
//     A conflict joins the stored object's clock into the running
//     transaction's clock in place. L(t) holds thread t's running (or
//     last) transaction object.
//   - A violation fires exactly when a join source has transitively
//     observed a tick of the running transaction itself — the stored
//     object is ordered both before (by the conflict) and after (by the
//     observation) the transaction, a happens-before cycle.
//
// The one subtlety of the online setting is that a conflict can order a
// transaction after another that is *still running*: later knowledge
// acquired by the predecessor must keep flowing downstream. Objects
// therefore carry subscriber lists — when an object's clock grows, the
// growth is pushed (with the same violation check) to every object that
// joined from it while it could still grow. A push chain corresponds
// exactly to the graph paths the Velodrome engines walk, so AeroDrome
// reports its first warning at the same operation: both fire at the end
// of the minimal non-serializable prefix.
//
// AeroDrome is inherently first-violation: after a warning the clocks
// no longer describe an acyclic order, so the checker stops, and a
// comparison against it must use first-violation semantics. Forensics
// are not supported — there is no cycle to annotate.

// aeroObj is one transaction's clock object. Unary (non-transactional)
// operations get objects too, possibly merged into a shared container
// (the Section 4.2 merge analog).
type aeroObj struct {
	vc    vc.Dense
	owner trace.Tid
	// begin is the owner's component at the transaction's first tick:
	// any observation of a tick >= begin is an observation of this
	// transaction (or, via program order, a successor — equally cyclic).
	begin uint64
	meta  *TxnMeta
	// subs are objects that joined from this one while it could still
	// grow and must be told about later growth.
	subs   []*aeroObj
	subSet map[*aeroObj]struct{} // dedupe once subs gets long
	// outs counts joins taken from this object by other objects; the
	// merge fast path requires 0 (the Reusable analog: extending an
	// object someone is already ordered after would forge orderings).
	outs int32
	// ups counts live subscriptions to still-growable sources: it is
	// incremented when this object subscribes to a growable source and
	// decremented when that source freezes. While positive, the clock
	// may still grow after the transaction ends; when it reaches zero on
	// an inactive object, the clock is final (see aeroChecker.freeze).
	// This replaces a sticky "was ever chained" bit, which kept every
	// subscriber list of a long join/fork chain alive for the whole run.
	ups int32
	// active: the transaction is still open (its clock grows by ticks).
	active bool
}

// mayGrow reports whether the object's clock can still change.
func (o *aeroObj) mayGrow() bool { return o.active || o.ups > 0 }

// aeroChecker is the AeroDrome engine behind the Checker interface.
type aeroChecker struct {
	common
	tables[*aeroObj]
	work  []*aeroObj // propagation worklist, reused across events
	srcs  []*aeroObj // join-source scratch, reused across events
	fwork []*aeroObj // freeze-cascade worklist, reused across events
}

// run is the engine's one loop: the decision cache first, as in
// optChecker.run, then the operation itself.
func (c *aeroChecker) run(ops []trace.Op) {
	if c.done {
		return
	}
	for i := range ops {
		op := &ops[i]
		if c.hit(op) {
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

// hitStore stores nothing: a hit leaves the cache entry it matched as
// it was.
func (c *aeroChecker) hitStore(trace.Op) {}

func (c *aeroChecker) step1(op trace.Op) *Warning {
	t := op.Thread
	inside := c.depth(t) > 0
	switch op.Kind {
	case trace.Begin:
		ignored := c.ignores(op.Label)
		if inside || ignored {
			// Nested blocks tick within the running transaction; exempted
			// blocks push a marker frame but never start one.
			var start uint64
			if inside {
				start = c.l.get(int32(t)).vc.Tick(t)
			}
			c.push(t, frame{op.Label, start, ignored})
			return nil
		}
		o := c.newObj(t, c.newMeta(TxnMeta{Thread: t, Label: c.labels.Name(op.Label), Start: c.idx, End: -1}))
		o.active = true
		c.push(t, frame{op.Label, o.begin, false})
		return nil

	case trace.End:
		popped, ok := c.pop(t)
		if !ok {
			return nil
		}
		if inside {
			o := c.l.get(int32(t))
			o.vc.Tick(t)
			if !popped.ignored && c.depth(t) == 0 {
				o.active = false
				if o.ups == 0 {
					// The clock is final — no growable source can ever push
					// into it, so pending subscriptions can never fire.
					// Dropping them unlinks the object for the GC and
					// releases the subscribers it was keeping growable.
					c.freeze(o)
				}
			}
		}
		return nil
	}

	if inside {
		return c.insideOp(op)
	}
	return c.outsideOp(op)
}

// newObj starts a fresh transaction object for t, ordered after the
// thread's previous object by program order.
func (c *aeroChecker) newObj(t trace.Tid, meta *TxnMeta) *aeroObj {
	prev := c.l.get(int32(t))
	o := &aeroObj{owner: t, meta: meta}
	if prev != nil {
		prev.vc.CopyInto(&o.vc)
		prev.outs++
		if prev.mayGrow() {
			// Program-order chaining: predecessors that can still learn
			// new happens-before facts must forward them here.
			c.subscribe(prev, o)
		}
	}
	o.begin = o.vc.Tick(t)
	c.l.set(int32(t), o)
	return o
}

// subscribe registers sub for src's future clock growth.
func (c *aeroChecker) subscribe(src, sub *aeroObj) {
	if src == sub {
		return
	}
	if src.subSet != nil {
		if _, dup := src.subSet[sub]; dup {
			return
		}
		src.subSet[sub] = struct{}{}
	} else {
		for _, r := range src.subs {
			if r == sub {
				return
			}
		}
		if len(src.subs) >= 32 {
			src.subSet = make(map[*aeroObj]struct{}, len(src.subs)+1)
			for _, r := range src.subs {
				src.subSet[r] = struct{}{}
			}
			src.subSet[sub] = struct{}{}
		}
	}
	src.subs = append(src.subs, sub)
	sub.ups++
	c.snap.AeroSubsPeak = max(c.snap.AeroSubsPeak, len(src.subs))
}

// freeze finalizes an object whose clock can no longer change (inactive
// with no growable sources left): its pending subscriptions can never
// fire, so the subscriber list is dropped, and each subscriber loses one
// growable source — cascading, since that may finalize it in turn. This
// is reference-counting GC on the subscription DAG, the clock-engine
// analog of the graph engines' Section 4.1 collection, and it bounds
// subscriber-list growth on join-dominated traces where the old sticky
// "chained" bit kept the whole chain's lists alive.
func (c *aeroChecker) freeze(o *aeroObj) {
	work := append(c.fwork[:0], o)
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		subs := f.subs
		f.subs, f.subSet = nil, nil
		for _, r := range subs {
			if r.ups--; r.ups == 0 && !r.active {
				work = append(work, r)
			}
		}
	}
	c.fwork = work[:0]
}

// joinFrom orders the stored object s before the running object d:
// d's clock absorbs s's, and if s may still grow, d subscribes to the
// growth. A violation fires when s has transitively observed a tick of
// d's own transaction — the cycle d → … → s → d.
func (c *aeroChecker) joinFrom(d, s *aeroObj, op trace.Op) *Warning {
	if s == nil || s == d {
		return nil
	}
	if s.vc.Get(d.owner) >= d.begin {
		return c.violation(op)
	}
	s.outs++
	grew := d.vc.Join(&s.vc)
	if s.mayGrow() {
		c.subscribe(s, d)
	}
	if grew {
		return c.propagate(d, op)
	}
	return nil
}

// propagate pushes o's freshly grown clock through its subscriber DAG,
// recursing only where a clock actually changed, and firing when the
// growth proves a subscriber's transaction was observed by something
// ordered before it (the cascade completes the same cycle the ordering
// inserted at this event would close in the graph engines).
func (c *aeroChecker) propagate(o *aeroObj, op trace.Op) *Warning {
	work := append(c.work[:0], o)
	for len(work) > 0 {
		src := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range src.subs {
			if src.vc.Get(r.owner) >= r.begin {
				c.work = work[:0]
				return c.violation(op)
			}
			if r.vc.Join(&src.vc) {
				work = append(work, r)
			}
		}
	}
	c.work = work[:0]
	return nil
}

// insideOp handles one operation of a running transaction. Like
// outsideOp, it stores the access in the decision cache once processed:
// a repeat by the same thread with the same running object L(t), the
// same W(x) and, for a write, no read of x recorded since, is a no-op —
// its re-join adds nothing (subscriptions keep the running clock current
// against growable sources, with the violation check performed at growth
// time), and its table stores are pointer-idempotent.
func (c *aeroChecker) insideOp(op trace.Op) *Warning {
	t := op.Thread
	o := c.l.get(int32(t))
	o.vc.Tick(t)
	switch op.Kind {
	case trace.Acquire:
		if w := c.joinFrom(o, c.u.get(op.Target), op); w != nil {
			return w
		}
	case trace.Release:
		c.u.set(op.Target, o)
	case trace.Read:
		x := op.Var()
		if w := c.joinFrom(o, c.w.get(x), op); w != nil {
			return w
		}
		c.r.set(x, t, o)
	case trace.Write:
		x := op.Var()
		if w := c.writeJoins(o, x, op); w != nil {
			return w
		}
		c.w.set(x, o)
		c.r.clear(x)
	}
	if !c.opts.NoFilter {
		c.store(op)
	}
	return nil
}

// writeJoins orders a write after the last write and every last read.
func (c *aeroChecker) writeJoins(o *aeroObj, x trace.Var, op trace.Op) *Warning {
	if w := c.joinFrom(o, c.w.get(x), op); w != nil {
		return w
	}
	for _, rs := range c.r.row(x) {
		if rs == nil {
			continue
		}
		if w := c.joinFrom(o, rs, op); w != nil {
			return w
		}
	}
	return nil
}

// outsideOp handles a non-transactional operation: its own unary
// transaction, merged into the thread's current unary container when
// that cannot forge orderings (Section 4.2's merge analog).
func (c *aeroChecker) outsideOp(op trace.Op) *Warning {
	t := op.Thread
	if op.Kind == trace.Release && !c.opts.NoMerge {
		// A release has no incoming conflict orderings, so it always
		// merges into the thread's current object ([INS2 OUTSIDE REL]).
		o := c.l.get(int32(t))
		if o == nil {
			o = c.newObj(t, c.newMeta(TxnMeta{Thread: t, Start: c.idx, Unary: true, End: c.idx}))
		} else {
			o.vc.Tick(t)
		}
		c.u.set(op.Target, o)
		return nil
	}
	srcs := c.srcs[:0]
	switch op.Kind {
	case trace.Acquire:
		srcs = append(srcs, c.u.get(op.Target))
	case trace.Read:
		srcs = append(srcs, c.w.get(op.Var()))
	case trace.Write:
		x := op.Var()
		srcs = append(srcs, c.w.get(x))
		for _, rs := range c.r.row(x) {
			if rs != nil {
				srcs = append(srcs, rs)
			}
		}
	}
	o := c.unaryTarget(t, srcs)
	var w *Warning
	for _, s := range srcs {
		if w = c.joinFrom(o, s, op); w != nil {
			break
		}
	}
	c.srcs = srcs[:0]
	if w != nil {
		return w
	}
	switch op.Kind {
	case trace.Release:
		c.u.set(op.Target, o) // NoMerge path
	case trace.Read:
		c.r.set(op.Var(), t, o)
	case trace.Write:
		c.w.set(op.Var(), o)
		c.r.clear(op.Var())
	}
	if !c.opts.NoFilter {
		c.store(op)
	}
	return nil
}

// unaryTarget returns the object hosting one non-transactional
// operation: the thread's current unary container when extending it is
// provably equivalent, a fresh unary transaction otherwise.
func (c *aeroChecker) unaryTarget(t trace.Tid, srcs []*aeroObj) *aeroObj {
	prev := c.l.get(int32(t))
	if !c.opts.NoMerge && prev != nil && !prev.active &&
		prev.meta != nil && prev.meta.Unary && prev.outs == 0 {
		reuse := true
		for _, s := range srcs {
			if s == nil || s == prev {
				continue
			}
			// Extending prev with an op ordered after s asserts s ≺ prev
			// retroactively. Safe only when s is frozen, prev already
			// knows everything s does, and s never observed prev itself.
			if s.mayGrow() || s.vc.Get(t) >= prev.begin || !s.vc.LessEq(&prev.vc) {
				reuse = false
				break
			}
		}
		if reuse {
			prev.vc.Tick(t)
			return prev
		}
	}
	return c.newObj(t, c.newMeta(TxnMeta{Thread: t, Start: c.idx, Unary: true, End: c.idx}))
}

// violation reports the first observed cycle and stops the checker:
// past this point the clocks no longer describe an acyclic order.
//
// No blame is assigned, like the Basic engine. Section 4.3's blame
// rests on the cycle being *increasing* — per-operation timestamps
// monotone through every intermediate node — and the clock
// representation erases exactly those per-edge times: a clock join
// records what was observed, not at which of the holder's operations
// the knowledge arrived or left. A completer on a non-increasing cycle
// can be self-serializable, so claiming blame here would violate
// invariant 5. Blame and forensics remain graph-engine capabilities
// (EngineInfo.SupportsForensics); AeroDrome trades them for the
// linear-time verdict.
func (c *aeroChecker) violation(op trace.Op) *Warning {
	c.done = true
	return c.record(c.newWarning(op, nil))
}
