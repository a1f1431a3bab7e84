package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
	"repro/internal/trace"
)

// denseCorpus records every Table 1 program once under the deterministic
// scheduler: what the benchmark's check-dense workload checks, at a
// scale a test can afford.
func denseCorpus(tb testing.TB) []trace.Trace {
	var corpus []trace.Trace
	for _, w := range bench.All() {
		rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(t *rr.Thread) {
			w.Body(t, bench.Params{Scale: 2})
		})
		if rep.Deadlocked || rep.Truncated {
			tb.Fatalf("recording %s: deadlocked=%v truncated=%v", w.Name, rep.Deadlocked, rep.Truncated)
		}
		corpus = append(corpus, rep.Trace)
	}
	return corpus
}

// perCheckAllocs is what one check may allocate that is not its output:
// the checker and its graph, and the growth of the node pool, of the first
// incarnations' edge and ancestor arrays, of the scratch buffers and of the
// per-thread, per-lock and per-variable tables as the trace names more of
// each (the Figure 2 engine keeps its tables in maps, one per variable for
// R). It grows with what the trace names, not with how long it is.
var perCheckAllocs = map[core.Engine]int{core.Optimized: 192, core.Basic: 512}

// TestDenseAllocBudget names everything a graph engine may allocate on
// the violation-dense corpus. Per cycle found: the Cycle and its edges
// (a write that closes several keeps one, so there are some more cycles
// than warnings). Per warning: the Warning, and the refuted labels when
// it blames. Per transaction that gets a node: its TxnMeta. Per check:
// the engine's perCheckAllocs. Nothing per event, per edge or per ancestor entry: a
// node's arrays are recycled with it, and cycle extraction walks on the
// graph's scratch and copies once.
func TestDenseAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	corpus := denseCorpus(t)
	for eng, perCheck := range perCheckAllocs {
		name := core.InfoFor(eng).Name
		// A first pass counts what the budget is made of.
		var events, warnings, refuted, txns, cycles int
		for _, tr := range corpus {
			res := core.CheckTrace(tr, core.Options{Engine: eng})
			events += len(tr)
			warnings += len(res.Warnings)
			txns += res.Stats.Allocated
			cycles += res.Stats.CyclesDetected
			for _, w := range res.Warnings {
				if len(w.Refuted) > 0 {
					refuted++
				}
			}
		}
		got := testing.AllocsPerRun(3, func() {
			for _, tr := range corpus {
				core.CheckTrace(tr, core.Options{Engine: eng})
			}
		})
		budget := float64(2*cycles + warnings + refuted + txns + perCheck*len(corpus))
		t.Logf("%s: %.0f allocations over %d events (%.3f/event); budget %.0f = 2×%d cycles + %d warnings + %d with refuted labels + %d transactions + %d×%d checks",
			name, got, events, got/float64(events), budget, cycles, warnings, refuted, txns, perCheck, len(corpus))
		if warnings < 1000 || cycles < warnings {
			t.Errorf("%s: %d warnings from %d cycles: the corpus is not violation-dense", name, warnings, cycles)
		}
		if got > budget {
			t.Errorf("%s: %.0f allocations per corpus pass, over the budget of %.0f", name, got, budget)
		}
	}
}
