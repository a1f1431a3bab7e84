package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// checkerMetrics instruments a Checker's hot path: per-operation-kind
// event counts and step latencies, plus warning/blame outcome counters.
// All instruments are cached pointers at construction, so the per-event
// cost with metrics enabled is one pair of clock reads and a handful of
// atomic adds; with Options.Metrics nil the engines time at most a sample
// of their operations (sample.go), and none without Options.Spans.
type checkerMetrics struct {
	stepNs   [8]*obs.Histogram // per trace.Kind step latency, nanoseconds
	events   [8]*obs.Counter   // per trace.Kind operations processed
	warnings *obs.Counter      // cycles reported
	incr     *obs.Counter      // warnings with an increasing cycle
	blamed   *obs.Counter      // warnings with blame assigned (Section 4.3)
	refuted  *obs.Counter      // atomic-block labels refuted across warnings
	filtered *obs.Counter      // ops discarded by the redundant-event fast path
	// aeroSubsPeak tracks the longest subscriber list any AeroDrome
	// clock object reached — the quantity the freeze cascade bounds on
	// join-dominated traces. Stays 0 on the graph engines.
	aeroSubsPeak *obs.Gauge
}

func newCheckerMetrics(r *obs.Registry) *checkerMetrics {
	m := &checkerMetrics{
		warnings: r.Counter("velodrome_warnings_total"),
		incr:     r.Counter("velodrome_warnings_increasing_total"),
		blamed:   r.Counter("velodrome_blame_assigned_total"),
		refuted:  r.Counter("velodrome_blocks_refuted_total"),
		filtered: r.Counter("core_events_filtered_total"),
		aeroSubsPeak: r.Gauge("core_aero_subscribers_peak"),
	}
	for k := trace.Read; k <= trace.Join; k++ {
		m.stepNs[k] = r.Histogram(fmt.Sprintf("velodrome_step_ns{kind=%q}", k))
		m.events[k] = r.Counter(fmt.Sprintf("velodrome_events_total{kind=%q}", k))
	}
	return m
}

// observe records one completed Step.
func (m *checkerMetrics) observe(op trace.Op, w *Warning, d time.Duration) {
	if k := int(op.Kind); k < len(m.stepNs) {
		m.stepNs[k].Observe(int64(d))
		m.events[k].Inc()
	}
	if w == nil {
		return
	}
	m.warnings.Inc()
	if w.Increasing {
		m.incr.Inc()
	}
	if w.Blamed != nil {
		m.blamed.Inc()
	}
	m.refuted.Add(int64(len(w.Refuted)))
}
