// Package rr is this reproduction's stand-in for RoadRunner, the dynamic
// analysis framework Velodrome is built on (Section 5). Go has no
// load-time bytecode instrumentation, so — per the repro plan — programs
// are written against wrapped synchronization primitives (Var, Mutex,
// Atomic, Fork/Join) that emit one event per lock acquire/release, memory
// read/write, and atomic block entry/exit. Events are delivered, already
// serialized, to a pluggable analysis back-end.
//
// Threads are virtual: runtime coroutines scheduled cooperatively, one at
// a time, by a deterministic seeded scheduler. Every event is a
// scheduling point, so a seed fully determines the interleaving — the
// experiments' "five runs" are five seeds. The scheduler understands lock
// and join blocking, detects deadlock, and supports the adversarial delay
// policy of Section 5 through an Advisor.
//
// Each virtual thread is a coroutine (iter.Pull) that Run's goroutine
// resumes; there is no scheduler goroutine. Exactly one virtual thread
// runs at a time, and when it publishes its next operation (or finishes)
// it takes the next scheduling decision itself. Granting itself costs no
// switch at all: it simply carries on. Granting another thread yields to
// Run's loop, which resumes the granted thread: two coroutine switches,
// with no trip through the Go scheduler's run queue. A thread forked by
// the last operation is admitted before that decision by a nested resume
// from the thread that forked it, and yields straight back once it has
// published its first operation. The decision code, and the order of
// everything it reads and draws, is that of a central loop that regains
// control after every operation, so a seed still gives the same
// interleaving; only which coroutine runs the loop's body changes.
//
// A run that ends with threads still suspended (deadlock, truncation, a
// panic) unwinds them in teardown: stopping a coroutine makes its pending
// yield report false, and the thread's operation then panics with a
// sentinel that the coroutine's own wrapper recovers, running the body's
// defers on the way. Any later operation by a body that recovered the
// sentinel panics with it again, so no body runs past its blocked
// operation. (runtime.Goexit would not do: iter.Pull re-raises it in
// whoever resumed the coroutine, which is Run's goroutine.)
package rr

import (
	"fmt"
	"iter"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Backend consumes the serialized event stream, like a RoadRunner
// analysis back-end. Implementations need not be thread-safe: events
// arrive from one goroutine at a time.
type Backend interface {
	Event(op trace.Op)
}

// Advisor lets an analysis steer the scheduler (adversarial scheduling,
// Section 5): before each grant the scheduler asks whether to park the
// thread that is about to perform op.
type Advisor interface {
	Delay(op trace.Op) int
}

// parkSteps is how many scheduling decisions an advisor delay parks a
// thread for: the analogue of the paper's 100 ms suspension.
const parkSteps = 40

// Options configure one execution.
type Options struct {
	// Seed determines the interleaving.
	Seed int64
	// Backend receives the event stream; nil runs uninstrumented (the
	// "Base Time" configuration of Table 1).
	Backend Backend
	// Advisor, if non-nil, may delay threads (adversarial scheduling).
	Advisor Advisor
	// Record keeps the full trace in the report.
	Record bool
	// FilterThreadLocal suppresses events on variables so far touched by
	// a single thread, as RoadRunner is "typically configured" to do
	// (Section 5; slightly unsound, dramatically faster). Once a second
	// thread touches a variable its events flow normally.
	FilterThreadLocal bool
	// MaxSteps bounds scheduling decisions (0 = 10,000,000); exceeded
	// runs report Truncated.
	MaxSteps int
	// Metrics, when non-nil, mirrors the run's progress onto the
	// registry (scheduling steps, events delivered, thread counts,
	// advisor delays) so a heartbeat or /metrics scrape can watch a
	// live run. Nil costs nothing.
	Metrics *obs.Registry
}

// rrMetrics caches the runtime's instruments (see Options.Metrics).
type rrMetrics struct {
	steps       *obs.Counter
	events      *obs.Counter
	delays      *obs.Counter
	threads     *obs.Counter
	threadsLive *obs.Gauge
	deadlocks   *obs.Counter
	truncations *obs.Counter
}

func newRRMetrics(r *obs.Registry) *rrMetrics {
	return &rrMetrics{
		steps:       r.Counter("rr_sched_steps_total"),
		events:      r.Counter("rr_events_total"),
		delays:      r.Counter("rr_delays_total"),
		threads:     r.Counter("rr_threads_total"),
		threadsLive: r.Gauge("rr_threads_live"),
		deadlocks:   r.Counter("rr_deadlocks_total"),
		truncations: r.Counter("rr_truncations_total"),
	}
}

// Report is the outcome of a run.
type Report struct {
	Trace      trace.Trace // recorded events (only when Options.Record)
	Steps      int         // scheduling decisions taken
	Events     int         // events delivered to the back-end
	Threads    int         // threads created
	Delays     int         // advisor-imposed parks
	Deadlocked bool        // all live threads were blocked
	Truncated  bool        // MaxSteps exceeded
}

type thread struct {
	api      Thread // the body's handle and its parent's, kept here to
	handle   Handle // save two allocations per thread
	id       trace.Tid
	resume   func() (struct{}, bool) // runs the coroutine to its next yield
	stop     func()                  // makes a pending yield report false
	yield    func(struct{}) bool     // suspends the coroutine
	pending  trace.Op                // next operation; valid while !finished
	finished bool
	park     int  // scheduling decisions left parked
	delayed  bool // pending op already delayed once; execute it next time
}

// torndown is the sentinel a torn-down thread's operation panics with; the
// thread's coroutine wrapper recovers it.
type torndown struct{}

var debugCands func(n int, delayed bool)

// Runtime owns the virtual threads, the shared-state registry and the
// event pipe. Workloads reach it through *Thread.
type Runtime struct {
	opts      Options
	rng       *rand.Rand
	threads   []*thread
	locks     []*Mutex
	nextTid   trace.Tid
	nextVar   trace.Var
	varNames  map[trace.Var]string
	owner     map[trace.Var]trace.Tid // thread-local filter state
	cands     []*thread               // enabled()'s result, reused
	live      int                     // admitted threads not yet finished
	admitted  int                     // threads[:admitted] have been admitted
	admitting bool                    // a fresh thread runs to its first publish
	granted   *thread                 // a yielding thread's decision, for Run's loop
	aborted   bool
	panicVal  any
	met       *rrMetrics // nil when Options.Metrics is nil
	report    Report
}

// Run executes main as virtual thread 1 under the options and returns the
// report once every thread has finished (or on deadlock/truncation, after
// tearing the remaining virtual threads down).
func Run(opts Options, main func(*Thread)) *Report {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10_000_000
	}
	rt := &Runtime{
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		varNames: map[trace.Var]string{},
		// Room for most programs' threads: each growth is an allocation
		// TestSchedulerAllocBudget counts against the decisions.
		threads: make([]*thread, 0, 8),
		cands:   make([]*thread, 0, 8),
	}
	if opts.FilterThreadLocal {
		rt.owner = map[trace.Var]trace.Tid{}
	}
	if opts.Metrics != nil {
		rt.met = newRRMetrics(opts.Metrics)
	}
	rt.spawn(main)
	rt.admitNew()
	for next := rt.decide(); next != nil; next = rt.granted {
		rt.granted = nil
		next.resume()
	}
	rt.teardown()
	if rt.panicVal != nil {
		panic(rt.panicVal) // propagate a virtual thread's panic to the caller
	}
	return &rt.report
}

// spawn creates a virtual thread: a coroutine that runs the body from its
// admission on and takes the next scheduling decision when it finishes.
func (rt *Runtime) spawn(body func(*Thread)) *thread {
	rt.nextTid++
	th := &thread{id: rt.nextTid}
	th.api, th.handle = Thread{rt: rt, th: th}, Handle{th: th}
	rt.threads = append(rt.threads, th)
	rt.report.Threads++
	if rt.met != nil {
		rt.met.threads.Inc()
		rt.met.threadsLive.Add(1)
	}
	th.resume, th.stop = iter.Pull(func(yield func(struct{}) bool) {
		th.yield = yield
		defer func() {
			if r := recover(); r != nil && !rt.aborted {
				// Surface the workload's panic through Run instead of
				// unwinding into whoever resumed this coroutine. Once
				// teardown has begun, a panic (the sentinel, or one a
				// deferred call raises on the way) only ends the thread.
				if rt.panicVal == nil {
					rt.panicVal = r
				}
				rt.finish(th)
			}
		}()
		body(&th.api)
		if !rt.aborted {
			rt.finish(th)
		}
	})
	return th
}

// finish retires th, whose body returned or panicked, and hands control
// on for the last time.
func (rt *Runtime) finish(th *thread) {
	th.finished = true
	rt.live--
	if rt.met != nil {
		rt.met.threadsLive.Add(-1)
	}
	rt.pass(th)
}

// pass is the handoff. Exactly one coroutine runs at a time, and it calls
// pass once th, its own thread, has published its next operation or
// finished. A fresh thread's first publish only returns control to the
// thread that admitted it. Otherwise the caller admits the threads its
// last operation forked and takes the next scheduling decision itself;
// unless that grants th again, it leaves the decision for Run's loop and
// yields. A finished thread does not yield: its coroutine returns. pass
// reports false when teardown stopped th's coroutine instead of granting
// it.
func (rt *Runtime) pass(th *thread) bool {
	if !rt.admitting {
		rt.admitNew()
		next := rt.decide()
		if next == th {
			return true // granted again: no switch
		}
		rt.granted = next
	}
	return th.finished || th.yield(struct{}{})
}

// admitNew gives every fresh thread its initial free grant, in fork
// order, so it runs up to its first operation (or completion) and
// publishes it before the next decision.
func (rt *Runtime) admitNew() {
	for rt.admitted < len(rt.threads) {
		nw := rt.threads[rt.admitted]
		rt.admitted++
		rt.live++
		rt.admitting = true
		nw.resume()
		rt.admitting = false
	}
}

// decide is the scheduler: pick an enabled thread to grant one operation
// to, or return nil when the run is over (every thread finished, a
// panic, truncation or deadlock).
func (rt *Runtime) decide() *thread {
	for rt.live > 0 {
		if rt.panicVal != nil {
			return nil
		}
		if rt.report.Steps >= rt.opts.MaxSteps {
			rt.report.Truncated = true
			if rt.met != nil {
				rt.met.truncations.Inc()
			}
			return nil
		}
		cands := rt.enabled()
		if len(cands) == 0 {
			if rt.unparkAll() {
				continue
			}
			rt.report.Deadlocked = true
			if rt.met != nil {
				rt.met.deadlocks.Inc()
			}
			return nil
		}
		th := cands[rt.rng.Intn(len(cands))]
		rt.report.Steps++
		if rt.met != nil {
			rt.met.steps.Inc()
		}
		if debugCands != nil {
			debugCands(len(cands), th.delayed)
		}
		rt.tickParks()
		// Consult the advisor unless the op was already delayed once or
		// no other thread could use the pause to interleave.
		if rt.opts.Advisor != nil && !th.delayed && len(cands) > 1 {
			if d := rt.opts.Advisor.Delay(th.pending); d > 0 {
				th.park = parkSteps
				th.delayed = true
				rt.report.Delays++
				if rt.met != nil {
					rt.met.delays.Inc()
				}
				continue
			}
		}
		th.delayed = false
		return th
	}
	return nil
}

// teardown unwinds the threads still suspended after deadlock,
// truncation or a panic: each stopped coroutine's operation panics with
// the torndown sentinel, which its wrapper recovers. Those threads never
// reach finish, so their exit is booked here.
func (rt *Runtime) teardown() {
	rt.aborted = true
	for _, th := range rt.threads {
		if !th.finished {
			if rt.met != nil {
				rt.met.threadsLive.Add(-1)
			}
			th.stop()
		}
	}
}

// enabled returns the threads whose pending operation can execute now:
// acquires need the lock free (or re-entrantly held), joins need the
// target finished, parked threads wait out their delay.
func (rt *Runtime) enabled() []*thread {
	out := rt.cands[:0]
	for _, th := range rt.threads {
		if th.finished || th.park > 0 {
			continue
		}
		switch th.pending.Kind {
		case trace.Acquire:
			if m := rt.lockByID(th.pending.Lock()); m != nil &&
				m.holder != 0 && m.holder != th.id {
				continue
			}
		case trace.Join:
			if tgt := rt.threadByID(th.pending.Other()); tgt != nil && !tgt.finished {
				continue
			}
		}
		out = append(out, th)
	}
	rt.cands = out
	return out
}

func (rt *Runtime) tickParks() {
	for _, th := range rt.threads {
		if th.park > 0 {
			th.park--
		}
	}
}

// unparkAll clears parks; reports whether any thread was parked.
func (rt *Runtime) unparkAll() bool {
	any := false
	for _, th := range rt.threads {
		if th.park > 0 {
			th.park = 0
			any = true
		}
	}
	return any
}

func (rt *Runtime) lockByID(id trace.Lock) *Mutex {
	if i := int(id); i >= 0 && i < len(rt.locks) {
		return rt.locks[i]
	}
	return nil
}

func (rt *Runtime) threadByID(id trace.Tid) *thread {
	if i := int(id) - 1; i >= 0 && i < len(rt.threads) {
		return rt.threads[i]
	}
	return nil
}

// wakeConflicting releases parked threads whose pending operation
// conflicts with the operation that just executed: the park exists to
// provoke exactly such an interleaving, so once the conflicting operation
// has landed there is nothing left to wait for. (The paper uses a fixed
// 100 ms suspension; at our scales a fixed long park would serialize the
// run instead, see DESIGN.md.)
func (rt *Runtime) wakeConflicting(op trace.Op) {
	for _, th := range rt.threads {
		if th.park > 0 && trace.Conflicts(op, th.pending) {
			th.park = 0
		}
	}
}

// emit delivers an event to the back-end, honoring the thread-local
// filter, and records it if requested.
func (rt *Runtime) emit(op trace.Op) {
	if rt.opts.FilterThreadLocal && (op.Kind == trace.Read || op.Kind == trace.Write) {
		x := op.Var()
		own, seen := rt.owner[x]
		switch {
		case !seen:
			rt.owner[x] = op.Thread
			return // first toucher: filtered
		case own == op.Thread:
			return // still thread-local: filtered
		case own != -1:
			rt.owner[x] = -1 // shared from here on
		}
	}
	rt.report.Events++
	if rt.met != nil {
		rt.met.events.Inc()
	}
	if rt.opts.Backend != nil {
		rt.opts.Backend.Event(op)
	}
	if rt.opts.Record {
		rt.report.Trace = append(rt.report.Trace, op)
	}
	rt.wakeConflicting(op)
}

// VarName returns the registered name of a variable id.
func (rt *Runtime) VarName(x trace.Var) string {
	if n, ok := rt.varNames[x]; ok {
		return n
	}
	return fmt.Sprintf("x%d", x)
}

// LockName returns the registered name of a lock id.
func (rt *Runtime) LockName(m trace.Lock) string {
	if mu := rt.lockByID(m); mu != nil {
		return mu.name
	}
	return fmt.Sprintf("m%d", m)
}

// DebugCands installs a test hook observing each scheduling decision.
func DebugCands(f func(n int, delayed bool)) { debugCands = f }
