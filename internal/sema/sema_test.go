package sema

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestInterleaveIsFeasibleAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		prog := RandomProgram(rng, DefaultGenConfig())
		total := 0
		for _, ops := range prog {
			total += len(ops)
		}
		tr, ok := prog.Interleave(rng)
		if !ok {
			t.Fatalf("iter %d: deadlock in single-lock-at-a-time program", i)
		}
		if len(tr) != total {
			t.Fatalf("iter %d: %d of %d ops scheduled", i, len(tr), total)
		}
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("iter %d: infeasible trace: %v", i, err)
		}
	}
}

func TestInterleaveDeterministicForSeed(t *testing.T) {
	p1 := RandomProgram(rand.New(rand.NewSource(9)), DefaultGenConfig())
	p2 := RandomProgram(rand.New(rand.NewSource(9)), DefaultGenConfig())
	t1, _ := p1.Interleave(rand.New(rand.NewSource(10)))
	t2, _ := p2.Interleave(rand.New(rand.NewSource(10)))
	if t1.String() != t2.String() {
		t.Fatal("same seeds must reproduce the same trace")
	}
}

func TestInterleaveReportsDeadlock(t *testing.T) {
	// Classic lock-order inversion, forced by interleaving both first
	// acquires before either second acquire can run.
	prog := Program{
		1: {trace.Acq(1, 0), trace.Acq(1, 1), trace.Rel(1, 1), trace.Rel(1, 0)},
		2: {trace.Acq(2, 1), trace.Acq(2, 0), trace.Rel(2, 0), trace.Rel(2, 1)},
	}
	deadlocked := false
	for seed := int64(0); seed < 50; seed++ {
		if _, ok := prog.Interleave(rand.New(rand.NewSource(seed))); !ok {
			deadlocked = true
			break
		}
	}
	if !deadlocked {
		t.Fatal("deadlock never observed across 50 seeds")
	}
}

func TestQuickGeneratedTracesAreWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := RandomTrace(rng, DefaultGenConfig())
		return trace.Validate(tr) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProgramString(t *testing.T) {
	p := Program{
		2: {trace.Rd(2, 0)},
		1: {trace.Beg(1, "m"), trace.Fin(1)},
	}
	s := p.String()
	if !strings.Contains(s, "thread 1:") || !strings.Contains(s, "begin.m(1)") ||
		!strings.Contains(s, "thread 2:") {
		t.Fatalf("rendering:\n%s", s)
	}
	if strings.Index(s, "thread 1:") > strings.Index(s, "thread 2:") {
		t.Error("threads must render in id order")
	}
}
