package rr

import (
	"fmt"

	"repro/internal/trace"
)

// yieldKind is an internal pseudo-operation used for pure scheduling
// points; it is never emitted to back-ends.
const yieldKind trace.Kind = 0xFF

// Thread is a virtual thread's handle into the runtime: all instrumented
// operations go through it. A Thread value is only valid on its own
// virtual thread.
type Thread struct {
	rt *Runtime
	th *thread
}

// ID returns the thread identifier (1 for the main thread).
func (t *Thread) ID() trace.Tid { return t.th.id }

// Runtime returns the owning runtime (for registry lookups).
func (t *Thread) Runtime() *Runtime { return t.rt }

// do publishes op as the thread's next operation, hands control on until
// the thread is granted (see pass), applies the state change, and emits
// the event. finalize may rewrite the operation (used by Fork, whose
// child id is only known once the action runs). A torn-down thread's
// operation panics with the torndown sentinel instead, also when the body
// recovered from it once.
func (t *Thread) do(op trace.Op, action func(), finalize func() trace.Op) {
	th := t.th
	th.pending = op
	if t.rt.aborted || !t.rt.pass(th) {
		panic(torndown{})
	}
	if action != nil {
		action()
	}
	if finalize != nil {
		op = finalize()
	}
	if op.Kind != yieldKind {
		t.rt.emit(op)
	}
}

// Yield is a pure scheduling point: it lets other threads run without
// emitting an event. Busy-wait loops should Yield between polls.
func (t *Thread) Yield() {
	t.do(trace.Op{Kind: yieldKind, Thread: t.th.id}, nil, nil)
}

// Until yields until pred returns true. pred typically performs
// instrumented reads, which are scheduling points themselves.
func (t *Thread) Until(pred func() bool) {
	for !pred() {
		t.Yield()
	}
}

// Begin enters an atomic block labeled label ([INS2 ENTER]/[RE-ENTER]).
func (t *Thread) Begin(label string) {
	t.do(trace.Beg(t.th.id, trace.Label(label)), nil, nil)
}

// End exits the innermost atomic block.
func (t *Thread) End() {
	t.do(trace.Fin(t.th.id), nil, nil)
}

// Atomic runs body inside an atomic block labeled label. Blocks nest.
func (t *Thread) Atomic(label string, body func()) {
	t.Begin(label)
	body()
	t.End()
}

// Handle identifies a forked thread for joining.
type Handle struct {
	th *thread
}

// ID returns the forked thread's identifier.
func (h *Handle) ID() trace.Tid { return h.th.id }

// Fork starts body on a fresh virtual thread and returns its handle. The
// event stream carries a fork event, which analyses treat as an ordering
// edge from the parent to the child.
func (t *Thread) Fork(body func(*Thread)) *Handle {
	var h *Handle
	t.do(trace.ForkOp(t.th.id, 0), func() {
		h = &t.rt.spawn(body).handle
	}, func() trace.Op {
		return trace.ForkOp(t.th.id, h.th.id)
	})
	return h
}

// Join blocks until the forked thread finishes; the join event orders the
// child's operations before the parent's subsequent ones.
func (t *Thread) Join(h *Handle) {
	t.do(trace.JoinOp(t.th.id, h.th.id), nil, nil)
}

// Var is a shared int64 variable whose loads and stores are instrumented.
type Var struct {
	rt  *Runtime
	id  trace.Var
	val int64
}

// NewVar registers a fresh shared variable under name. Safe to call from
// any virtual thread.
func (rt *Runtime) NewVar(name string) *Var {
	v := &Var{rt: rt, id: rt.nextVar}
	rt.nextVar++
	rt.varNames[v.id] = name
	return v
}

// ID returns the variable's event-stream id.
func (v *Var) ID() trace.Var { return v.id }

// Load reads the variable (one rd event).
func (v *Var) Load(t *Thread) int64 {
	var out int64
	t.do(trace.Rd(t.th.id, v.id), func() { out = v.val }, nil)
	return out
}

// Store writes the variable (one wr event).
func (v *Var) Store(t *Thread, x int64) {
	t.do(trace.Wr(t.th.id, v.id), func() { v.val = x }, nil)
}

// Add performs the read-modify-write v += d as two instrumented accesses
// (a load followed by a store) — the canonical atomicity hazard.
func (v *Var) Add(t *Thread, d int64) int64 {
	x := v.Load(t) + d
	v.Store(t, x)
	return x
}

// Ref is a shared cell of arbitrary type; like a Java object field, it is
// analyzed as a single variable.
type Ref[T any] struct {
	rt  *Runtime
	id  trace.Var
	val T
}

// NewRef registers a typed shared cell under name. Safe to call from any
// virtual thread.
func NewRef[T any](rt *Runtime, name string) *Ref[T] {
	r := &Ref[T]{rt: rt, id: rt.nextVar}
	rt.nextVar++
	rt.varNames[r.id] = name
	return r
}

// ID returns the cell's event-stream id.
func (r *Ref[T]) ID() trace.Var { return r.id }

// Load reads the cell (one rd event).
func (r *Ref[T]) Load(t *Thread) T {
	var out T
	t.do(trace.Rd(t.th.id, r.id), func() { out = r.val }, nil)
	return out
}

// Store writes the cell (one wr event).
func (r *Ref[T]) Store(t *Thread, x T) {
	t.do(trace.Wr(t.th.id, r.id), func() { r.val = x }, nil)
}

// Update applies f to the cell under a single write event (an "atomic"
// object mutation, like updating a collection behind one field).
func (r *Ref[T]) Update(t *Thread, f func(T) T) {
	t.do(trace.Wr(t.th.id, r.id), func() { r.val = f(r.val) }, nil)
}

// Mutex is an instrumented re-entrant lock. Re-entrant acquires and
// releases are filtered out before reaching the back-end, as RoadRunner
// does (Section 5).
type Mutex struct {
	rt     *Runtime
	id     trace.Lock
	name   string
	holder trace.Tid // 0 when free
	depth  int
}

// NewMutex registers a fresh lock under name. Safe to call from any
// virtual thread.
func (rt *Runtime) NewMutex(name string) *Mutex {
	m := &Mutex{rt: rt, id: trace.Lock(len(rt.locks)), name: name}
	rt.locks = append(rt.locks, m)
	return m
}

// ID returns the lock's event-stream id.
func (m *Mutex) ID() trace.Lock { return m.id }

// Lock acquires the mutex, blocking the virtual thread while another
// thread holds it. Re-entrant acquires only bump a counter.
func (m *Mutex) Lock(t *Thread) {
	if m.reentrantAcquire(t) {
		return
	}
	t.do(trace.Acq(t.th.id, m.id), func() {
		if m.holder != 0 {
			panic(fmt.Sprintf("rr: scheduler granted acq of held lock %s", m.rt.LockName(m.id)))
		}
		m.holder = t.th.id
		m.depth = 1
	}, nil)
}

// Unlock releases the mutex; the outermost release of a re-entrant chain
// emits the event.
func (m *Mutex) Unlock(t *Thread) {
	if m.reentrantRelease(t) {
		return
	}
	t.do(trace.Rel(t.th.id, m.id), func() {
		m.depth = 0
		m.holder = 0
	}, nil)
}

// reentrantAcquire handles the re-entrant fast path. Only the holder ever
// sees holder == itself, and only one virtual thread runs at a time, so
// it reads the holder directly.
func (m *Mutex) reentrantAcquire(t *Thread) bool {
	if m.holder == t.th.id {
		m.depth++
		return true
	}
	return false
}

// reentrantRelease pops one level of a re-entrant chain; the outermost
// release falls through to the instrumented path. Non-holders panic.
func (m *Mutex) reentrantRelease(t *Thread) bool {
	if m.holder != t.th.id {
		panic(fmt.Sprintf("rr: unlock of %s by non-holder thread %d", m.rt.LockName(m.id), t.th.id))
	}
	if m.depth > 1 {
		m.depth--
		return true
	}
	return false
}

// With runs body while holding the mutex.
func (m *Mutex) With(t *Thread, body func()) {
	m.Lock(t)
	body()
	m.Unlock(t)
}

// Array is a shared slice of int64 cells whose element accesses are NOT
// instrumented, mirroring the paper's prototype, which "performs the
// analysis only on objects and fields, and not on arrays" (Section 5).
// Element accesses are still scheduling points, so array-heavy kernels
// interleave realistically; dropping their events can only hide
// violations, never fabricate them (the subtrace argument of Section 6).
type Array struct {
	rt    *Runtime
	cells []int64
}

// NewArray registers an uninstrumented shared array of n cells.
func (rt *Runtime) NewArray(name string, n int) *Array {
	_ = name // arrays have no event-stream identity
	return &Array{rt: rt, cells: make([]int64, n)}
}

// Len returns the number of cells.
func (a *Array) Len() int { return len(a.cells) }

// Load reads element i (a scheduling point, no event).
func (a *Array) Load(t *Thread, i int) int64 {
	var out int64
	t.do(trace.Op{Kind: yieldKind, Thread: t.th.id}, func() { out = a.cells[i] }, nil)
	return out
}

// Store writes element i (a scheduling point, no event).
func (a *Array) Store(t *Thread, i int, v int64) {
	t.do(trace.Op{Kind: yieldKind, Thread: t.th.id}, func() { a.cells[i] = v }, nil)
}
