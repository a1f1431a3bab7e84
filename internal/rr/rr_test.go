package rr

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func TestSingleThreadRuns(t *testing.T) {
	ran := false
	rep := Run(Options{Seed: 1}, func(th *Thread) {
		ran = true
		if th.ID() != 1 {
			t.Errorf("main thread id = %d", th.ID())
		}
	})
	if !ran {
		t.Fatal("main body did not run")
	}
	if rep.Deadlocked || rep.Truncated {
		t.Fatalf("bad report %+v", rep)
	}
}

func TestEventStreamRecorded(t *testing.T) {
	var rt *Runtime
	rep := Run(Options{Seed: 1, Record: true}, func(th *Thread) {
		rt = th.Runtime()
		x := rt.NewVar("x")
		m := rt.NewMutex("m")
		th.Atomic("blk", func() {
			m.Lock(th)
			x.Store(th, 7)
			if got := x.Load(th); got != 7 {
				t.Errorf("load = %d", got)
			}
			m.Unlock(th)
		})
	})
	want := []trace.Kind{trace.Begin, trace.Acquire, trace.Write, trace.Read, trace.Release, trace.End}
	if len(rep.Trace) != len(want) {
		t.Fatalf("trace = %v", rep.Trace)
	}
	for i, k := range want {
		if rep.Trace[i].Kind != k {
			t.Fatalf("event %d = %v, want kind %v", i, rep.Trace[i], k)
		}
	}
	if err := trace.Validate(rep.Trace); err != nil {
		t.Fatalf("recorded trace ill-formed: %v", err)
	}
	if rt.VarName(rep.Trace[2].Var()) != "x" {
		t.Error("variable name lost")
	}
	if rt.LockName(rep.Trace[1].Lock()) != "m" {
		t.Error("lock name lost")
	}
}

func TestForkJoinOrdering(t *testing.T) {
	total := 0
	rep := Run(Options{Seed: 3, Record: true}, func(th *Thread) {
		rt := th.Runtime()
		x := rt.NewVar("x")
		x.Store(th, 1)
		h := th.Fork(func(c *Thread) {
			x.Add(c, 10)
		})
		th.Join(h)
		total = int(x.Load(th))
	})
	if total != 11 {
		t.Fatalf("total = %d, want 11", total)
	}
	if rep.Threads != 2 {
		t.Fatalf("threads = %d", rep.Threads)
	}
	if err := trace.Validate(rep.Trace); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestMutualExclusionUnderAllSeeds(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		violated := false
		Run(Options{Seed: seed}, func(th *Thread) {
			rt := th.Runtime()
			m := rt.NewMutex("m")
			inCS := 0
			worker := func(c *Thread) {
				for i := 0; i < 5; i++ {
					m.Lock(c)
					inCS++
					if inCS != 1 {
						violated = true
					}
					c.Yield() // invite interleaving inside the section
					inCS--
					m.Unlock(c)
				}
			}
			h1 := th.Fork(worker)
			h2 := th.Fork(worker)
			th.Join(h1)
			th.Join(h2)
		})
		if violated {
			t.Fatalf("seed %d: mutual exclusion violated", seed)
		}
	}
}

func TestReentrantLockFiltered(t *testing.T) {
	rep := Run(Options{Seed: 1, Record: true}, func(th *Thread) {
		m := th.Runtime().NewMutex("m")
		m.Lock(th)
		m.Lock(th) // re-entrant: filtered
		m.Unlock(th)
		m.Unlock(th)
	})
	if len(rep.Trace) != 2 {
		t.Fatalf("re-entrant acquire leaked into stream: %v", rep.Trace)
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Options{Seed: 1}, func(th *Thread) {
		m := th.Runtime().NewMutex("m")
		h := th.Fork(func(c *Thread) { m.Lock(c) })
		th.Join(h)
		m.Unlock(th)
	})
}

func TestDeterminismPerSeed(t *testing.T) {
	run := func(seed int64) string {
		rep := Run(Options{Seed: seed, Record: true}, func(th *Thread) {
			rt := th.Runtime()
			x := rt.NewVar("x")
			var hs []*Handle
			for i := 0; i < 3; i++ {
				hs = append(hs, th.Fork(func(c *Thread) {
					for j := 0; j < 4; j++ {
						x.Add(c, 1)
					}
				}))
			}
			for _, h := range hs {
				th.Join(h)
			}
		})
		return rep.Trace.String()
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different traces")
	}
	same := run(7) == run(8)
	if same {
		t.Log("seeds 7 and 8 coincide (unlikely but legal)")
	}
}

func TestDeadlockDetected(t *testing.T) {
	rep := Run(Options{Seed: 4}, func(th *Thread) {
		rt := th.Runtime()
		a, b := rt.NewMutex("a"), rt.NewMutex("b")
		gate := rt.NewVar("gate")
		h1 := th.Fork(func(c *Thread) {
			a.Lock(c)
			gate.Add(c, 1)
			c.Until(func() bool { return gate.Load(c) == 2 })
			b.Lock(c)
		})
		h2 := th.Fork(func(c *Thread) {
			b.Lock(c)
			gate.Add(c, 1)
			c.Until(func() bool { return gate.Load(c) == 2 })
			a.Lock(c)
		})
		th.Join(h1)
		th.Join(h2)
	})
	if !rep.Deadlocked {
		t.Fatal("deadlock not detected")
	}
}

func TestMaxStepsTruncates(t *testing.T) {
	rep := Run(Options{Seed: 1, MaxSteps: 100}, func(th *Thread) {
		x := th.Runtime().NewVar("x")
		for {
			x.Add(th, 1)
		}
	})
	if !rep.Truncated {
		t.Fatal("runaway loop not truncated")
	}
}

func TestThreadLocalFilter(t *testing.T) {
	rep := Run(Options{Seed: 1, Record: true, FilterThreadLocal: true}, func(th *Thread) {
		rt := th.Runtime()
		local := rt.NewVar("local")
		shared := rt.NewVar("shared")
		for i := 0; i < 5; i++ {
			local.Add(th, 1) // only ever touched by thread 1: filtered
		}
		shared.Store(th, 1) // filtered (first toucher)
		h := th.Fork(func(c *Thread) {
			shared.Add(c, 1) // second thread: flows from here on
		})
		th.Join(h)
		shared.Load(th)
	})
	for _, op := range rep.Trace {
		if op.Kind == trace.Read || op.Kind == trace.Write {
			if op.Thread == 1 && op.Kind == trace.Write {
				t.Fatalf("filtered event leaked: %v", op)
			}
		}
	}
	// The child's accesses and the parent's final load must be present.
	reads, writes := 0, 0
	for _, op := range rep.Trace {
		switch op.Kind {
		case trace.Read:
			reads++
		case trace.Write:
			writes++
		}
	}
	if reads < 2 || writes < 1 {
		t.Fatalf("shared accesses over-filtered: %v", rep.Trace)
	}
}

func TestVelodromeBackendFindsViolation(t *testing.T) {
	// Force the racy interleaving deterministically with a gate variable
	// that is itself instrumented (extra conflicts don't hide the cycle).
	found := false
	for seed := int64(0); seed < 60 && !found; seed++ {
		be := NewVelodrome(core.Options{})
		Run(Options{Seed: seed, Backend: be}, func(th *Thread) {
			rt := th.Runtime()
			x := rt.NewVar("x")
			h := th.Fork(func(c *Thread) {
				c.Atomic("inc", func() {
					v := x.Load(c)
					c.Yield()
					c.Yield()
					x.Store(c, v+1)
				})
			})
			x.Store(th, 99)
			th.Join(h)
		})
		for _, w := range be.Warnings() {
			if w.Method() == "inc" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no seed exposed the atomicity violation")
	}
}

func TestMultiBackendFanout(t *testing.T) {
	e1, e2 := &Empty{}, &Empty{}
	Run(Options{Seed: 1, Backend: Multi{e1, e2}}, func(th *Thread) {
		x := th.Runtime().NewVar("x")
		x.Store(th, 1)
		x.Load(th)
	})
	if e1.Count != 2 || e2.Count != 2 {
		t.Fatalf("fanout counts = %d, %d", e1.Count, e2.Count)
	}
}

func TestRefCell(t *testing.T) {
	Run(Options{Seed: 1}, func(th *Thread) {
		rt := th.Runtime()
		r := NewRef[[]string](rt, "list")
		r.Store(th, []string{"a"})
		r.Update(th, func(s []string) []string { return append(s, "b") })
		got := r.Load(th)
		if len(got) != 2 || got[1] != "b" {
			t.Errorf("ref = %v", got)
		}
	})
}

func TestAdvisorDelays(t *testing.T) {
	adv := NewAtomizerAdvisor()
	rep := Run(Options{Seed: 2, Backend: adv, Advisor: adv}, func(th *Thread) {
		rt := th.Runtime()
		x := rt.NewVar("x")
		// Make x racy with a sibling that keeps running, then perform
		// atomic RMWs that the advisor should park while the sibling can
		// still interleave.
		h := th.Fork(func(c *Thread) {
			for i := 0; i < 40; i++ {
				x.Add(c, 1)
			}
		})
		for i := 0; i < 10; i++ {
			th.Atomic("inc", func() {
				x.Add(th, 1)
			})
		}
		th.Join(h)
	})
	if rep.Delays == 0 {
		t.Fatal("advisor never delayed a suspicious operation")
	}
	if rep.Deadlocked || rep.Truncated {
		t.Fatalf("bad report %+v", rep)
	}
}

// TestVelodromeAndRaceDetectorTogether mirrors Section 5: RoadRunner's
// race detectors "can be run concurrently with Velodrome if race
// conditions are a concern". One event stream, two verdicts.
func TestVelodromeAndRaceDetectorTogether(t *testing.T) {
	velo := NewVelodrome(core.Options{})
	era := NewEraser()
	Run(Options{Seed: 5, Backend: Multi{velo, era}}, func(th *Thread) {
		rt := th.Runtime()
		x := rt.NewVar("x")
		h := th.Fork(func(c *Thread) {
			c.Atomic("inc", func() {
				v := x.Load(c)
				c.Yield()
				c.Yield()
				c.Yield()
				x.Store(c, v+1)
			})
		})
		x.Store(th, 7) // races with the child AND can break its atomicity
		th.Join(h)
	})
	if len(era.Warnings()) == 0 {
		t.Error("eraser missed the race")
	}
	// Velodrome may or may not witness the atomicity violation on this
	// seed, but any warning it does report must be about "inc".
	for _, w := range velo.Warnings() {
		if w.Method() != "inc" && w.Method() != "" {
			t.Errorf("unexpected blame %q", w.Method())
		}
	}
}

// TestThreadLocalFilterIsSlightlyUnsound pins the paper's caveat that the
// thread-local-data filter is "slightly unsound": it drops each
// variable's accesses up to the first cross-thread touch, so a violation
// whose happens-before cycle runs through those first accesses vanishes.
// The program below has exactly one cycle shape — t1's block reads x and
// later writes y, t2 writes x and earlier reads y — and both the x-read
// and the y-read are first touches. On every seed where the unfiltered
// run witnesses the violation, the filtered run of the same seed must
// stay (unsoundly) silent.
func TestThreadLocalFilterIsSlightlyUnsound(t *testing.T) {
	prog := func(th *Thread) {
		rt := th.Runtime()
		x, y := rt.NewVar("x"), rt.NewVar("y")
		h := th.Fork(func(c *Thread) {
			x.Store(c, 7)
			c.Yield()
			y.Load(c)
		})
		th.Atomic("initPair", func() {
			x.Load(th)
			th.Yield()
			th.Yield()
			th.Yield()
			y.Store(th, 9)
		})
		th.Join(h)
	}
	witnessed := 0
	for seed := int64(1); seed <= 60; seed++ {
		unfiltered := NewVelodrome(core.Options{})
		Run(Options{Seed: seed, Backend: unfiltered}, prog)
		if len(unfiltered.Warnings()) == 0 {
			continue
		}
		witnessed++
		filtered := NewVelodrome(core.Options{})
		Run(Options{Seed: seed, Backend: filtered, FilterThreadLocal: true}, prog)
		if len(filtered.Warnings()) != 0 {
			t.Fatalf("seed %d: the filter should have hidden the violation:\n%s",
				seed, filtered.Warnings()[0])
		}
	}
	if witnessed == 0 {
		t.Fatal("no seed witnessed the violation unfiltered; test inert")
	}
}
