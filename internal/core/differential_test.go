package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sema"
	"repro/internal/serial"
	"repro/internal/trace"
)

// TestAeroFirstViolationParity pins the AeroDrome comparison contract:
// on every random trace, the vector-clock engine agrees with both graph
// engines on the verdict and reports its first (and only) warning at
// the same operation as their earliest warning — all sound-and-complete
// online checkers fire exactly at the end of the minimal
// non-serializable prefix. Blame is deliberately never assigned: the
// clock representation erases the per-operation edge times that make
// the increasing-cycle test sound (see violation in aerodrome.go), so
// the warning carries position only.
func TestAeroFirstViolationParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20200115))
	violating := 0
	for i := 0; i < 400; i++ {
		tr := sema.RandomTrace(rng, sema.DefaultGenConfig())
		opt := CheckTrace(tr, Options{FirstOnly: true})
		aero := CheckTrace(tr, Options{Engine: Aero})
		if aero.Serializable != opt.Serializable {
			t.Fatalf("iter %d: aero serializable=%v, optimized=%v\ntrace:\n%s",
				i, aero.Serializable, opt.Serializable, tr)
		}
		if opt.Serializable {
			continue
		}
		violating++
		if len(aero.Warnings) != 1 {
			t.Fatalf("iter %d: aero reported %d warnings, want exactly 1", i, len(aero.Warnings))
		}
		aw, ow := aero.Warnings[0], opt.Warnings[0]
		if aw.OpIndex != ow.OpIndex {
			t.Fatalf("iter %d: aero first warning at op %d, optimized at op %d\ntrace:\n%s",
				i, aw.OpIndex, ow.OpIndex, tr)
		}
		if aw.Blamed != nil || aw.Increasing || len(aw.Refuted) != 0 || aw.Cycle != nil {
			t.Fatalf("iter %d: aero warning must carry position only, got %+v", i, aw)
		}
	}
	if violating < 50 {
		t.Fatalf("only %d violating traces; generator too tame", violating)
	}
}

// TestAeroNeverBlames pins the no-blame contract on the small-trace
// regime where TestBlameIsNotSelfSerializable exercises the graph
// engines' invariant 5. A self-serializable completer on a
// non-increasing cycle (e.g. a thread whose conflicting access
// precedes its acquisition of the completer's clock) is reachable
// here, and blaming it would be unsound — the clocks cannot tell the
// two cases apart, so AeroDrome must stay silent on both.
func TestAeroNeverBlames(t *testing.T) {
	rng := rand.New(rand.NewSource(5678))
	cfg := sema.GenConfig{Threads: 2, OpsPerThd: 5, Vars: 2, Locks: 1, PAtomic: 0.8, PLock: 0.2}
	checked := 0
	for i := 0; i < 500 && checked < 40; i++ {
		tr := sema.RandomTrace(rng, cfg)
		if len(tr) > 20 {
			continue
		}
		r := CheckTrace(tr, Options{Engine: Aero})
		if r.Serializable || len(r.Warnings) == 0 {
			continue
		}
		w := r.Warnings[0]
		if w.Blamed != nil || w.Increasing || len(w.Refuted) != 0 {
			t.Fatalf("iter %d: aero assigned blame %+v\ntrace:\n%s", i, w, tr[:w.OpIndex+1])
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d violating traces exercised; generator too tame", checked)
	}
}

// TestMergeReducesAllocations verifies invariant 3 of DESIGN.md: merging
// never increases allocation, and verdicts match.
func TestMergeReducesAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := sema.DefaultGenConfig()
	cfg.PAtomic = 0.3 // plenty of unary operations
	for i := 0; i < 200; i++ {
		tr := sema.RandomTrace(rng, cfg)
		with := CheckTrace(tr, Options{})
		without := CheckTrace(tr, Options{NoMerge: true})
		if with.Serializable != without.Serializable {
			t.Fatalf("iter %d: merge changed verdict\ntrace:\n%s", i, tr)
		}
		if with.Stats.Allocated > without.Stats.Allocated {
			t.Fatalf("iter %d: merge increased allocations (%d > %d)",
				i, with.Stats.Allocated, without.Stats.Allocated)
		}
	}
}

// TestGCKeepsVerdict verifies invariant 2: verdicts are identical with GC
// on and off, and GC collects everything once all transactions finish on a
// serializable trace.
func TestGCKeepsVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		tr := sema.RandomTrace(rng, sema.DefaultGenConfig())
		withGC := CheckTrace(tr, Options{})
		without := CheckTrace(tr, Options{NoGC: true})
		if withGC.Serializable != without.Serializable {
			t.Fatalf("iter %d: GC changed verdict\ntrace:\n%s", i, tr)
		}
		if withGC.Serializable && withGC.Stats.Alive != 0 {
			t.Fatalf("iter %d: %d nodes alive after serializable trace ended",
				i, withGC.Stats.Alive)
		}
	}
}

// TestBlameIsNotSelfSerializable verifies invariant 5: on small traces,
// any transaction blamed via an increasing cycle is confirmed
// not-self-serializable by the brute-force oracle.
func TestBlameIsNotSelfSerializable(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	cfg := sema.GenConfig{Threads: 2, OpsPerThd: 5, Vars: 2, Locks: 1, PAtomic: 0.8, PLock: 0.2}
	checked := 0
	for i := 0; i < 500 && checked < 40; i++ {
		tr := sema.RandomTrace(rng, cfg)
		if len(tr) > 20 {
			continue
		}
		r := CheckTrace(tr, Options{FirstOnly: true})
		if r.Serializable || len(r.Warnings) == 0 {
			continue
		}
		w := r.Warnings[0]
		if w.Blamed == nil {
			continue
		}
		// Identify the blamed transaction's id: the transaction containing
		// the cycle-closing operation (it belongs to the completing node).
		prefix := tr[:w.OpIndex+1]
		txnOf, _ := serial.Transactions(prefix)
		blamedTxn := txnOf[w.OpIndex]
		if serial.SelfSerializable(prefix, blamedTxn) {
			t.Fatalf("iter %d: blamed transaction %d is self-serializable\ntrace:\n%s",
				i, blamedTxn, prefix)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d blame cases exercised; generator too tame", checked)
	}
}

// TestQuickSerialPrograms uses testing/quick to check that any purely
// serial interleaving (one thread at a time, whole transactions) is always
// serializable.
func TestQuickSerialPrograms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := sema.RandomProgram(rng, sema.DefaultGenConfig())
		// Execute threads back to back: trivially serial.
		var tr trace.Trace
		for _, tid := range []trace.Tid{1, 2, 3} {
			tr = append(tr, prog[tid]...)
		}
		if trace.Validate(tr) != nil {
			return true // skip ill-formed corner (should not happen)
		}
		return CheckTrace(tr, Options{}).Serializable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPrefixMonotone: serializability is not monotone in general, but
// warnings are: once a checker reports a violation at index i, the oracle
// must agree that the prefix ending at i is non-serializable, and every
// longer prefix stays non-serializable.
func TestQuickPrefixMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := sema.RandomTrace(rng, sema.DefaultGenConfig())
		r := CheckTrace(tr, Options{FirstOnly: true})
		if r.Serializable {
			return true
		}
		i := r.Warnings[0].OpIndex
		ok1, _ := serial.Check(tr[:i+1])
		ok2, _ := serial.Check(tr)
		return !ok1 && !ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWarningCounts ensures FirstOnly reports exactly one warning and the
// default mode reports at least as many.
func TestWarningCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		tr := sema.RandomTrace(rng, sema.DefaultGenConfig())
		first := CheckTrace(tr, Options{FirstOnly: true})
		all := CheckTrace(tr, Options{})
		if first.Serializable != all.Serializable {
			t.Fatalf("iter %d: FirstOnly changed verdict", i)
		}
		if !first.Serializable {
			if len(first.Warnings) != 1 {
				t.Fatalf("iter %d: FirstOnly reported %d warnings", i, len(first.Warnings))
			}
			if len(all.Warnings) < 1 {
				t.Fatalf("iter %d: default mode lost the warning", i)
			}
			if all.Warnings[0].OpIndex != first.Warnings[0].OpIndex {
				t.Fatalf("iter %d: first warning index differs", i)
			}
		}
	}
}
