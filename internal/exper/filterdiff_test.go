package exper

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
	"repro/internal/serial"
	"repro/internal/trace"
)

var (
	corpusMu      sync.Mutex
	corpusByScale = map[int]map[string]trace.Trace{}
	oracleByScale = map[int]map[string]bool{}
)

// corpusTraces is the bench suite (the Table 1/2 programs plus the
// hot-loop redundancy group) recorded at seed 1 and the given scale, by
// workload name. Recording it is much of what the tests in this package
// cost, so it happens once per scale for the whole test binary; the map
// is shared and must not be written to.
func corpusTraces(scale int) map[string]trace.Trace {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpusByScale[scale]; ok {
		return c
	}
	c := map[string]trace.Trace{}
	for _, w := range append(bench.All(), bench.Hot()...) {
		rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(t *rr.Thread) {
			w.Body(t, bench.Params{Scale: scale})
		})
		c[w.Name] = rep.Trace
	}
	corpusByScale[scale] = c
	return c
}

// corpusOracle is the serial oracle's verdict on each trace of
// corpusTraces(scale), computed once per scale; the map is shared and
// must not be written to.
func corpusOracle(scale int) map[string]bool {
	traces := corpusTraces(scale)
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if o, ok := oracleByScale[scale]; ok {
		return o
	}
	o := map[string]bool{}
	for name, tr := range traces {
		o[name], _ = serial.Check(tr)
	}
	oracleByScale[scale] = o
	return o
}

func warnKey(w *core.Warning) string {
	blamed := ""
	if w.Blamed != nil {
		blamed = string(w.Blamed.Label)
	}
	return fmt.Sprintf("%d/%v/%s/%v", w.OpIndex, w.Increasing, blamed, w.Refuted)
}

// TestFilterMatrixOnBenchCorpus is the corpus half of the filter
// soundness argument: on every workload trace, every registered engine
// with the filter on and off agrees with the offline serial oracle on
// the verdict, and each engine's filtered run reproduces its unfiltered
// warnings — same operations, same increasing flags, same blame —
// exactly. AeroDrome runs under first-violation semantics (one
// position-only warning); its cross-engine half is
// TestAeroCorpusFirstViolationParity below.
func TestFilterMatrixOnBenchCorpus(t *testing.T) {
	scale := 4
	if testing.Short() {
		scale = 2
	}
	oracle := corpusOracle(scale)
	for name, tr := range corpusTraces(scale) {
		want := oracle[name]
		for _, info := range core.Engines() {
			off := core.CheckTrace(tr, core.Options{Engine: info.Engine, NoFilter: true})
			on := core.CheckTrace(tr, core.Options{Engine: info.Engine})
			if off.Filtered != 0 {
				t.Fatalf("%s engine %s: NoFilter run filtered %d events", name, info.Name, off.Filtered)
			}
			if on.Serializable != want || off.Serializable != want {
				t.Fatalf("%s engine %s: serializable on=%v off=%v oracle=%v",
					name, info.Name, on.Serializable, off.Serializable, want)
			}
			if len(on.Warnings) != len(off.Warnings) {
				t.Fatalf("%s engine %s: %d warnings with filter, %d without",
					name, info.Name, len(on.Warnings), len(off.Warnings))
			}
			for i := range on.Warnings {
				if got, wantK := warnKey(on.Warnings[i]), warnKey(off.Warnings[i]); got != wantK {
					t.Fatalf("%s engine %s warning %d: filter-on %s != filter-off %s",
						name, info.Name, i, got, wantK)
				}
			}
		}
	}
}

// TestAeroCorpusFirstViolationParity is the acceptance check that the
// vector-clock engine agrees with the graph engines across the whole
// workload corpus under first-violation semantics: same verdict as the
// serial oracle, and on non-serializable workloads, the single aero
// warning lands at the same operation as the graph engines' earliest
// warning (every sound-and-complete online checker fires exactly at
// the end of the minimal non-serializable prefix).
func TestAeroCorpusFirstViolationParity(t *testing.T) {
	scale := 4
	if testing.Short() {
		scale = 2
	}
	oracle := corpusOracle(scale)
	for name, tr := range corpusTraces(scale) {
		want := oracle[name]
		opt := core.CheckTrace(tr, core.Options{FirstOnly: true})
		aero := core.CheckTrace(tr, core.Options{Engine: core.Aero})
		if opt.Serializable != want || aero.Serializable != want {
			t.Fatalf("%s: serializable opt=%v aero=%v oracle=%v",
				name, opt.Serializable, aero.Serializable, want)
		}
		if want {
			continue
		}
		if len(aero.Warnings) != 1 {
			t.Fatalf("%s: aero reported %d warnings, want exactly 1", name, len(aero.Warnings))
		}
		if a, o := aero.Warnings[0].OpIndex, opt.Warnings[0].OpIndex; a != o {
			t.Fatalf("%s: aero first warning at op %d, graph engines at op %d", name, a, o)
		}
	}
}

// TestFilterRegressionGuard holds the redundancy filter to floors on
// the share of events it discards and to a ceiling on what the
// filter-on steady state allocates. The loop-regime speedup rests on
// exactly these two quantities, and unlike a wall-clock floor they are
// deterministic at a fixed seed and scale: a filter change that stops
// recognising an idiom, or starts allocating per event, fails here on
// any host. Each floor sits well under the share measured when the
// filter landed (seed 1, scale 10), quoted beside it.
func TestFilterRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("regression guard needs full-scale traces")
	}
	floors := map[string]float64{ // filtered%, graph engine
		"spinread":  80, // measured 94.3
		"scanloop":  70, // 86.2
		"rmwloop":   80, // 95.2
		"pollqueue": 80, // 95.4
		"logbuffer": 80, // 94.3
		"servermix": 70, // 88.3
		// Two Table 1 reproductions whose idioms filter substantially:
		// their floors guard the paper-workload regime too.
		"sor":      25, // 37.4
		"multiset": 35, // 47.0
	}
	// AeroDrome's decision cache covers plain read/write redundancy only
	// (no acquire/release fast path), so its floors sit below the graph
	// engine's on lock-heavy loops.
	aeroFloors := map[string]float64{
		"rmwloop":   85, // measured 92.6
		"logbuffer": 85, // 94.1
		"servermix": 75, // 82.5
		"scanloop":  65, // 73.8
	}
	const maxAllocsPerEvent = 0.15 // measured ~0.02 on the hot-loop group
	traces := corpusTraces(10)
	for name, floor := range floors {
		tr := traces[name]
		if len(tr) == 0 {
			t.Fatalf("%s: empty corpus trace", name)
		}
		res := core.CheckTrace(tr, core.Options{})
		pct := 100 * float64(res.Filtered) / float64(len(tr))
		if pct < floor {
			t.Errorf("%s: filtered %.1f%% of %d events, floor %.0f%%", name, pct, len(tr), floor)
		}
	}
	for name, floor := range aeroFloors {
		tr := traces[name]
		if len(tr) == 0 {
			t.Fatalf("%s: empty corpus trace", name)
		}
		res := core.CheckTrace(tr, core.Options{Engine: core.Aero})
		pct := 100 * float64(res.Filtered) / float64(len(tr))
		if pct < floor {
			t.Errorf("%s (aero): filtered %.1f%% of %d events, floor %.0f%%", name, pct, len(tr), floor)
		}
	}
	// Allocation guard on the flagship loop workload.
	tr := traces["rmwloop"]
	const reps = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		core.CheckTrace(tr, core.Options{})
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(reps) / float64(len(tr))
	if perEvent > maxAllocsPerEvent {
		t.Errorf("rmwloop: %.3f allocs/event with filter on, threshold %.2f", perEvent, maxAllocsPerEvent)
	}
}
