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
