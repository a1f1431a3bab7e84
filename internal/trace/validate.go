package trace

import "fmt"

// A ValidationError reports the first ill-formed operation in a trace.
type ValidationError struct {
	Index int
	Op    Op
	Msg   string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("trace: op %d %s: %s", e.Index, e.Op, e.Msg)
}

// WellFormed is the online definition of a well-formed (feasible) trace,
// one operation at a time. Its zero value is the empty trace. The rules:
//
//   - locks are acquired only when free and released only by their holder
//     (re-entrant acquires must have been filtered out already, as
//     RoadRunner does before handing events to a back-end);
//   - End operations match an open atomic block of the same thread;
//   - a forked thread has no earlier operations and is forked at most once;
//   - a joined thread performs no operations after the join.
//
// Nested Begin operations are permitted (Section 4.3).
type WellFormed struct {
	n       int
	holder  map[Lock]Tid
	threads map[Tid]*wfThread
}

// wfThread counts what a thread has done and had done to it, so that
// Undo can take any of it back.
type wfThread struct{ ops, open, forks, joins int }

// seen returns t's counts so far.
func (w *WellFormed) seen(t Tid) wfThread {
	if c := w.threads[t]; c != nil {
		return *c
	}
	return wfThread{}
}

// Allowed reports why op cannot extend the trace so far, as a
// *ValidationError whose Index is op's position, or nil. It changes nothing.
func (w *WellFormed) Allowed(op Op) error {
	t := op.Thread
	fail := func(format string, args ...any) error {
		return &ValidationError{Index: w.n, Op: op, Msg: fmt.Sprintf(format, args...)}
	}
	if w.seen(t).joins > 0 {
		return fail("thread %d acts after being joined", t)
	}
	switch op.Kind {
	case Acquire:
		if h, held := w.holder[op.Lock()]; held {
			return fail("lock m%d already held by thread %d", op.Lock(), h)
		}
	case Release:
		h, held := w.holder[op.Lock()]
		if !held {
			return fail("lock m%d not held", op.Lock())
		}
		if h != t {
			return fail("lock m%d held by thread %d, not %d", op.Lock(), h, t)
		}
	case End:
		if w.seen(t).open == 0 {
			return fail("end without matching begin")
		}
	case Fork:
		u := op.Other()
		if u == t {
			return fail("thread forks itself")
		}
		if w.seen(u).forks > 0 {
			return fail("thread %d forked twice", u)
		}
		if w.seen(u).ops > 0 {
			return fail("thread %d already ran before fork", u)
		}
	case Join:
		if op.Other() == t {
			return fail("thread joins itself")
		}
	case Read, Write, Begin:
		// Always well formed.
	default:
		return fail("unknown kind")
	}
	return nil
}

// Step checks op with Allowed and, if it is allowed, appends it.
func (w *WellFormed) Step(op Op) error {
	if err := w.Allowed(op); err != nil {
		return err
	}
	w.apply(op, 1)
	return nil
}

// Undo takes back op, which must be the operation of the last Step not
// yet undone.
func (w *WellFormed) Undo(op Op) { w.apply(op, -1) }

// apply appends op (d = 1) or takes it back (d = -1).
func (w *WellFormed) apply(op Op, d int) {
	w.n += d
	t := w.thread(op.Thread)
	t.ops += d
	switch op.Kind {
	case Acquire, Release:
		if (op.Kind == Acquire) == (d > 0) {
			w.holder[op.Lock()] = op.Thread
		} else {
			delete(w.holder, op.Lock())
		}
	case Begin:
		t.open += d
	case End:
		t.open -= d
	case Fork:
		w.thread(op.Other()).forks += d
	case Join:
		w.thread(op.Other()).joins += d
	}
}

// thread returns t's counts, adding zero ones for a thread not seen yet.
func (w *WellFormed) thread(t Tid) *wfThread {
	c := w.threads[t]
	if c == nil {
		if w.threads == nil {
			w.holder, w.threads = map[Lock]Tid{}, map[Tid]*wfThread{}
		}
		c = new(wfThread)
		w.threads[t] = c
	}
	return c
}

// Validate checks that a trace is well formed (see WellFormed), returning
// a *ValidationError at the first operation that is not.
func Validate(tr Trace) error {
	var w WellFormed
	for _, op := range tr {
		if err := w.Step(op); err != nil {
			return err
		}
	}
	return nil
}
