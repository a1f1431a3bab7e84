package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
)

// TestAeroSubscriberPeakBounded guards the AeroDrome subscriber-list
// compaction: on the join-dominated raja workload the peak subscriber
// list must stay a small constant as the trace grows. Before ended
// objects were frozen (sticky chained flag), program-order successors
// kept subscribing to finished transactions and join chains accumulated
// for the rest of the run.
func TestAeroSubscriberPeakBounded(t *testing.T) {
	const bound = 4
	for _, scale := range []int{1, 2, 4, 8} {
		rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(th *rr.Thread) {
			bench.ByName("raja").Body(th, bench.Params{Scale: scale})
		})
		res := core.CheckTrace(rep.Trace, core.Options{Engine: core.Aero})
		if peak := res.AeroSubsPeak; peak > bound {
			t.Errorf("scale %d (%d ops): subscriber peak %d exceeds bound %d",
				scale, len(rep.Trace), peak, bound)
		}
		want := core.CheckTrace(rep.Trace, core.Options{Engine: core.Optimized})
		if res.Serializable != want.Serializable {
			t.Errorf("scale %d: aero=%v optimized=%v", scale, res.Serializable, want.Serializable)
		}
	}
}
