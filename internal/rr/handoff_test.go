package rr_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/rr"
)

// TestSchedulerAllocBudget pins the scheduler's own cost: an
// uninstrumented, unrecorded run may allocate at most a tenth of an
// allocation per scheduling decision. What remains is the program's own
// set-up (its threads, variables and locks); anything allocated per
// decision, such as a candidate list built afresh, reads 1.0 or more.
func TestSchedulerAllocBudget(t *testing.T) {
	const budget = 0.1
	for _, name := range []string{"multiset", "jigsaw", "philo", "sor"} {
		w := bench.ByName(name)
		var rep *rr.Report
		allocs := testing.AllocsPerRun(3, func() {
			rep = rr.Run(rr.Options{Seed: 1}, func(th *rr.Thread) {
				w.Body(th, bench.Params{Scale: 5})
			})
		})
		perStep := allocs / float64(rep.Steps)
		t.Logf("%s: %.0f allocations over %d steps, %.3f per step (budget %.1f)", name, allocs, rep.Steps, perStep, budget)
		if perStep > budget {
			t.Errorf("%s: %.3f allocations per scheduling step, budget %.1f", name, perStep, budget)
		}
	}
}

// lockOrder takes two locks in opposite orders on two threads forever:
// every run either deadlocks or is truncated, and both leave threads
// blocked mid-operation for the teardown to unwind.
func lockOrder(th *rr.Thread) {
	rt := th.Runtime()
	a, b := rt.NewMutex("a"), rt.NewMutex("b")
	x := rt.NewVar("x")
	loop := func(first, second *rr.Mutex) func(*rr.Thread) {
		return func(c *rr.Thread) {
			for {
				for i := 0; i < 8; i++ {
					x.Add(c, 1)
				}
				first.Lock(c)
				second.Lock(c)
				second.Unlock(c)
				first.Unlock(c)
			}
		}
	}
	h1 := th.Fork(loop(a, b))
	h2 := th.Fork(loop(b, a))
	th.Join(h1)
	th.Join(h2)
}

// TestNoGoroutineLeft checks that a run leaves no goroutine behind, also
// when it ends by deadlock or truncation with threads parked
// mid-operation.
func TestNoGoroutineLeft(t *testing.T) {
	start := runtime.NumGoroutine()
	deadlocked, truncated := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rep := rr.Run(rr.Options{Seed: seed, MaxSteps: 200}, lockOrder)
		switch {
		case rep.Deadlocked:
			deadlocked++
		case rep.Truncated:
			truncated++
		default:
			t.Fatalf("seed %d: run neither deadlocked nor was truncated: %+v", seed, rep)
		}
	}
	t.Logf("%d runs deadlocked, %d truncated", deadlocked, truncated)
	if deadlocked == 0 || truncated == 0 {
		t.Errorf("want both endings among the runs, got %d deadlocked and %d truncated", deadlocked, truncated)
	}
	checkGoroutines(t, start)
}

// unwinding counts what recoveringLockOrder's forked threads do.
type unwinding struct {
	ops       int // operations the bodies saw complete
	recovered int // bodies that recovered from whatever ended them
	again     int // operations after that recover that panicked again
}

// recoveringLockOrder is lockOrder with forked bodies that recover
// whatever ends them and then try one more operation.
func recoveringLockOrder(u *unwinding) func(*rr.Thread) {
	return func(th *rr.Thread) {
		rt := th.Runtime()
		a, b := rt.NewMutex("a"), rt.NewMutex("b")
		x := rt.NewVar("x")
		loop := func(first, second *rr.Mutex) func(*rr.Thread) {
			return func(c *rr.Thread) {
				defer func() {
					if recover() == nil {
						return
					}
					u.recovered++
					defer func() {
						if recover() != nil {
							u.again++
						}
					}()
					x.Load(c)
				}()
				for {
					for i := 0; i < 8; i++ {
						v := x.Load(c)
						u.ops++
						x.Store(c, v+1)
						u.ops++
					}
					first.Lock(c)
					u.ops++
					second.Lock(c)
					u.ops++
					second.Unlock(c)
					u.ops++
					first.Unlock(c)
					u.ops++
				}
			}
		}
		h1 := th.Fork(loop(a, b))
		h2 := th.Fork(loop(b, a))
		th.Join(h1)
		th.Join(h2)
	}
}

// TestTeardownUnwindsRecoveringBody checks teardown against forked bodies
// that recover whatever ends them: each run reports what lockOrder's run
// reports, no body gets past the operation it was blocked in (every
// operation in the trace was granted, and the bodies saw no other
// complete), an operation after the recover panics again, and no
// goroutine is left.
func TestTeardownUnwindsRecoveringBody(t *testing.T) {
	start := runtime.NumGoroutine()
	deadlocked, truncated := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		opts := rr.Options{Seed: seed, MaxSteps: 200, Record: true}
		want := rr.Run(opts, lockOrder)
		var u unwinding
		got := rr.Run(opts, recoveringLockOrder(&u))
		if got.Deadlocked != want.Deadlocked || got.Truncated != want.Truncated ||
			got.Steps != want.Steps || got.Events != want.Events ||
			got.Trace.String() != want.Trace.String() {
			t.Fatalf("seed %d: recovering bodies changed the run:\n got  %+v\n want %+v", seed, got, want)
		}
		if len(got.Trace) != got.Steps {
			t.Errorf("seed %d: %d operations in the trace, %d granted", seed, len(got.Trace), got.Steps)
		}
		forked := 0
		for _, op := range got.Trace {
			if op.Thread != 1 {
				forked++
			}
		}
		if u.ops != forked {
			t.Errorf("seed %d: bodies saw %d operations complete, the trace has %d", seed, u.ops, forked)
		}
		if u.recovered != 2 || u.again != 2 {
			t.Errorf("seed %d: %d bodies recovered and %d operations panicked again, want 2 and 2", seed, u.recovered, u.again)
		}
		if got.Deadlocked {
			deadlocked++
		} else {
			truncated++
		}
	}
	if deadlocked == 0 || truncated == 0 {
		t.Errorf("want both endings among the runs, got %d deadlocked and %d truncated", deadlocked, truncated)
	}
	checkGoroutines(t, start)
}

// TestPanicEndsRun checks that a forked thread's panic ends the run
// through Run, with the other threads torn down, not the process.
func TestPanicEndsRun(t *testing.T) {
	start := runtime.NumGoroutine()
	for seed := int64(1); seed <= 20; seed++ {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("seed %d: Run panicked with %v, want boom", seed, r)
				}
			}()
			rr.Run(rr.Options{Seed: seed}, func(th *rr.Thread) {
				x := th.Runtime().NewVar("x")
				spin := th.Fork(func(c *rr.Thread) {
					for {
						x.Add(c, 1)
					}
				})
				th.Fork(func(c *rr.Thread) {
					x.Add(c, 1)
					panic("boom")
				})
				th.Join(spin)
			})
		}()
	}
	checkGoroutines(t, start)
}

// checkGoroutines fails t unless the goroutine count comes back to start.
// A torn-down thread's goroutine exits after teardown has woken it, so
// the last few get a moment.
func checkGoroutines(t *testing.T, start int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > start {
		t.Fatalf("%d goroutines before the runs, %d after", start, n)
	}
}
