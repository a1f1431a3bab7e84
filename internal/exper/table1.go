package exper

import (
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rr"
	"repro/internal/trace"
)

// Table1Row is one benchmark's timing and graph statistics in the shape
// of Table 1.
type Table1Row struct {
	Name      string
	JavaLines int
	// BaseTime is the uninstrumented run (nil back-end).
	BaseTime time.Duration
	// Slowdowns relative to BaseTime.
	Empty, Eraser, Atomizer, Velodrome float64
	// Steps are the scheduling decisions of the base run, and Events the
	// events it delivers (every configuration runs the same schedule).
	Steps, Events int
	// Happens-before graph statistics, without and with merging.
	NoMergeAllocated, NoMergeMaxAlive int
	MergeAllocated, MergeMaxAlive     int
	// Paper's published numbers for the four node columns.
	PaperNoMergeAlloc, PaperNoMergeAlive string
	PaperMergeAlloc, PaperMergeAlive     string
}

// paperTable1Nodes holds the published node columns (allocated/max-alive
// without merge, allocated/max-alive with merge), as printed.
var paperTable1Nodes = map[string][4]string{
	"elevator":   {"174,000", "20", "170,000", "13"},
	"hedc":       {"79", "37", "58", "4"},
	"tsp":        {">1,000,000", "8", "12,000", "1"},
	"sor":        {"2,000", "2", "2", "2"},
	"jbb":        {"21,000", "9", "14,000", "13"},
	"mtrt":       {"645,000", "5", "645,000", "5"},
	"moldyn":     {"5", "4", "5", "4"},
	"montecarlo": {"410,000", "4", "300,000", "4"},
	"raytracer":  {"128", "8", "23", "8"},
	"colt":       {"113", "11", "58", "19"},
	"philo":      {"34", "5", "34", "5"},
	"raja":       {"60", "1", "60", "1"},
	"multiset":   {"218,000", "8", "8", "8"},
	"webl":       {"470,000", "4", "395,000", "4"},
	"jigsaw":     {"123,000", "99", "36,600", "17"},
}

// Each configuration is timed as the fastest of timingRounds batches of
// at least minBatch, taken round by round across the configurations. On a
// shared host interference only ever adds time, in stretches longer than
// a batch: the minimum is the stable figure, and interleaving exposes
// every configuration to the same drift instead of one of them to all of
// it.
const (
	timingRounds = 5
	minBatch     = 10 * time.Millisecond
)

// timeRuns measures w's per-run wall time under each back-end factory
// (nil is the uninstrumented base run) and returns the first
// configuration's report.
func timeRuns(w *bench.Workload, seed int64, p bench.Params, mks []func() rr.Backend) ([]time.Duration, *rr.Report) {
	run := func(mk func() rr.Backend) *rr.Report {
		var be rr.Backend
		if mk != nil {
			be = mk()
		}
		return rr.Run(rr.Options{Seed: seed, Backend: be}, func(t *rr.Thread) {
			w.Body(t, p)
		})
	}
	reps := make([]int, len(mks))
	var first *rr.Report
	for i, mk := range mks {
		start := time.Now() // a warm-up run sizes the batch
		rep := run(mk)
		reps[i] = max(1, min(int(minBatch/max(time.Since(start), 1)), 1<<16))
		if i == 0 {
			first = rep
		}
	}
	best := make([]time.Duration, len(mks))
	for r := 0; r < timingRounds; r++ {
		for i, mk := range mks {
			start := time.Now()
			for j := 0; j < reps[i]; j++ {
				run(mk)
			}
			if d := time.Since(start) / time.Duration(reps[i]); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best, first
}

// NonAtomicSpec runs Velodrome over the standard seeds and returns the
// set of methods it blames — the input for the paper's Table 1 timing
// configuration, which "used Velodrome to identify non-atomic methods and
// configured the Atomizer and Velodrome to only check the remaining
// methods".
func NonAtomicSpec(w *bench.Workload, seeds []int64, scale int) map[trace.Label]bool {
	spec := map[trace.Label]bool{}
	for _, seed := range seeds {
		velo := rr.NewVelodrome(core.Options{})
		rr.Run(rr.Options{Seed: seed, Backend: velo}, func(t *rr.Thread) {
			w.Body(t, bench.Params{Scale: scale})
		})
		for _, warn := range velo.Warnings() {
			if m := warn.Method(); m != "" {
				spec[m] = true
			}
		}
	}
	return spec
}

// Table1 reproduces the timing and node-statistics table. Scale enlarges
// the workloads so timing dominates scheduling noise. When specFiltered
// is set, each benchmark's known non-atomic methods are first identified
// and exempted, mimicking the paper's measurement configuration (which
// "actually increases the overhead ... because program traces contain
// many small transactions rather than a few monolithic ones").
func Table1(seed int64, scale int) []Table1Row { return table1(seed, scale, false) }

// Table1SpecFiltered is Table1 under the paper's exempt-known-defects
// configuration.
func Table1SpecFiltered(seed int64, scale int) []Table1Row { return table1(seed, scale, true) }

func table1(seed int64, scale int, specFiltered bool) []Table1Row {
	var rows []Table1Row
	for _, w := range bench.All() {
		p := bench.Params{Scale: scale}
		row := Table1Row{Name: w.Name, JavaLines: w.JavaLines}
		var spec map[trace.Label]bool
		if specFiltered {
			spec = NonAtomicSpec(w, DefaultSeeds, 1)
		}

		times, base := timeRuns(w, seed, p, []func() rr.Backend{
			nil,
			func() rr.Backend { return &rr.Empty{} },
			func() rr.Backend { return rr.NewEraser() },
			func() rr.Backend {
				a := rr.NewAtomizer()
				a.Checker.SetSpec(spec)
				return a
			},
			func() rr.Backend { return rr.NewVelodrome(core.Options{Ignore: spec}) },
		})
		row.BaseTime, row.Steps, row.Events = times[0], base.Steps, base.Events
		ratio := func(d time.Duration) float64 {
			if row.BaseTime <= 0 {
				return 0
			}
			return float64(d) / float64(row.BaseTime)
		}
		row.Empty, row.Eraser, row.Atomizer, row.Velodrome = ratio(times[1]), ratio(times[2]), ratio(times[3]), ratio(times[4])

		row.NoMergeAllocated, row.NoMergeMaxAlive = nodeStats(w, seed, p, true)
		row.MergeAllocated, row.MergeMaxAlive = nodeStats(w, seed, p, false)

		if pn, ok := paperTable1Nodes[w.Name]; ok {
			row.PaperNoMergeAlloc, row.PaperNoMergeAlive = pn[0], pn[1]
			row.PaperMergeAlloc, row.PaperMergeAlive = pn[2], pn[3]
		}
		rows = append(rows, row)
	}
	return rows
}

// nodeStats runs Velodrome once and reports transactions allocated and
// the peak number alive (the last four columns of Table 1).
func nodeStats(w *bench.Workload, seed int64, p bench.Params, noMerge bool) (allocated, maxAlive int) {
	velo := rr.NewVelodrome(core.Options{NoMerge: noMerge})
	rr.Run(rr.Options{Seed: seed, Backend: velo}, func(t *rr.Thread) {
		w.Body(t, p)
	})
	st := velo.Checker.Snapshot().Stats
	return st.Allocated, st.MaxAlive
}

// GraphStats re-exports the stats type for tool use.
type GraphStats = graph.Stats
