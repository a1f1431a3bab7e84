package exper

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
	"repro/internal/trace"
)

// BaselineCell is one (engine, filter) measurement over a recorded
// workload trace: pure analysis cost with no scheduler in the loop.
type BaselineCell struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// FilteredPct is the share of trace operations discarded by the
	// redundant-event fast path (0 for the filter-off columns).
	FilteredPct float64 `json:"filtered_pct"`
}

// BaselineRow is one workload's entry in BENCH_core.json.
type BaselineRow struct {
	Workload string `json:"workload"`
	Events   int    `json:"events"`
	// Optimized engine, FilterRedundant on (production default) and off.
	FilterOn  BaselineCell `json:"filter_on"`
	FilterOff BaselineCell `json:"filter_off"`
	// Basic engine, same split.
	BasicOn  BaselineCell `json:"basic_filter_on"`
	BasicOff BaselineCell `json:"basic_filter_off"`
	// AeroDrome vector-clock engine, same split.
	AeroOn  BaselineCell `json:"aero_filter_on"`
	AeroOff BaselineCell `json:"aero_filter_off"`
	// Speedup is FilterOff.NsPerEvent / FilterOn.NsPerEvent for the
	// optimized engine — the headline of the committed baseline.
	Speedup float64 `json:"speedup"`
	// AeroSpeedup is FilterOn.NsPerEvent / AeroOn.NsPerEvent: the
	// linear-time engine against the production graph engine, both in
	// their filter-on configuration — the O(n) headline.
	AeroSpeedup float64 `json:"aero_speedup"`
}

// BaselineReport is the BENCH_core.json document: the committed
// hot-path trajectory regression guards compare against.
type BaselineReport struct {
	Seed int64 `json:"seed"`
	// Host records the machine the numbers were taken on; comparisons
	// against the committed file are only meaningful on matching hosts.
	Host  HostInfo      `json:"host"`
	Scale int           `json:"scale"`
	Rows  []BaselineRow `json:"rows"`
}

// Baseline records each bench workload's event stream once and replays
// it through {Basic, Optimized, Aero} × {filter on, off}, measuring
// ns/event, steady-state allocations per event, and the filtered share.
// The suite is the fifteen Table 1/2 reproductions plus the hot-loop
// redundancy group (bench.Hot), whose loop-dominated traces are the
// regime Section 5's filtering targets.
func Baseline(seed int64, scale int) *BaselineReport {
	out := &BaselineReport{Seed: seed, Host: CollectHost(), Scale: scale}
	for _, w := range append(bench.All(), bench.Hot()...) {
		rep := rr.Run(rr.Options{Seed: seed, Record: true}, func(t *rr.Thread) {
			w.Body(t, bench.Params{Scale: scale})
		})
		tr := rep.Trace
		row := BaselineRow{Workload: w.Name, Events: len(tr)}
		row.FilterOn = MeasureChecker(tr, core.Options{})
		row.FilterOff = MeasureChecker(tr, core.Options{NoFilter: true})
		row.BasicOn = MeasureChecker(tr, core.Options{Engine: core.Basic})
		row.BasicOff = MeasureChecker(tr, core.Options{Engine: core.Basic, NoFilter: true})
		row.AeroOn = MeasureChecker(tr, core.Options{Engine: core.Aero})
		row.AeroOff = MeasureChecker(tr, core.Options{Engine: core.Aero, NoFilter: true})
		if row.FilterOn.NsPerEvent > 0 {
			row.Speedup = row.FilterOff.NsPerEvent / row.FilterOn.NsPerEvent
		}
		if row.AeroOn.NsPerEvent > 0 {
			row.AeroSpeedup = row.FilterOn.NsPerEvent / row.AeroOn.NsPerEvent
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// MeasureChecker replays tr through fresh checkers configured by opts
// and reports per-event analysis cost. Each timed round is preceded by a
// GC so collector debt from a previous configuration never lands in this
// one's window, rounds are sized to at least 25ms to dominate timer
// granularity, and the minimum over several rounds is reported (the
// standard defense against scheduler and frequency noise on shared
// machines). Allocations are counted separately so ReadMemStats never
// lands inside a timed window.
func MeasureChecker(tr trace.Trace, opts core.Options) BaselineCell {
	var cell BaselineCell
	if len(tr) == 0 {
		return cell
	}
	res := core.CheckTrace(tr, opts)
	cell.FilteredPct = 100 * float64(res.Filtered) / float64(len(tr))

	const minDuration = 25 * time.Millisecond
	const rounds = 4
	reps := 1
	best := 0.0
	for round := 0; round < rounds; {
		runtime.GC()
		start := time.Now()
		for i := 0; i < reps; i++ {
			core.CheckTrace(tr, opts)
		}
		elapsed := time.Since(start)
		if elapsed < minDuration && reps < 1<<16 {
			reps *= 4 // too short to trust: grow the batch, don't count the round
			continue
		}
		// Normalize before comparing: reps may still grow between counted
		// rounds, so raw durations from different rounds are not comparable.
		ns := float64(elapsed.Nanoseconds()) / float64(reps) / float64(len(tr))
		if best == 0 || ns < best {
			best = ns
		}
		round++
	}
	cell.NsPerEvent = best

	allocReps := 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocReps; i++ {
		core.CheckTrace(tr, opts)
	}
	runtime.ReadMemStats(&after)
	cell.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(allocReps) / float64(len(tr))
	return cell
}

// WriteJSON writes the report as one indented JSON object.
func (r *BaselineReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBaseline parses a BENCH_core.json document (used by the
// regression guard test to compare against the committed thresholds).
func ReadBaseline(r io.Reader) (*BaselineReport, error) {
	var rep BaselineReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
