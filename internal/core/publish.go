package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/span"
)

// The metric families that have a reader besides the table below: the
// daemon's verdict metrics block and the velodrome heartbeat.
const (
	MetricFiltered   = "core_events_filtered_total"
	MetricMemoHits   = "graph_edges_memo_hits_total"
	MetricNodesAlive = "graph_nodes_alive"
	MetricWarnings   = "velodrome_warnings_total"
)

// families is the one table of engine metric families: the name a
// registry serves each Snapshot field under, and whether it is a gauge
// (set) or a counter (advanced).
var families = []struct {
	name  string
	gauge bool
	value func(*Snapshot) int
}{
	{"graph_nodes_allocated_total", false, func(s *Snapshot) int { return s.Stats.Allocated }},
	{"graph_nodes_recycled_total", false, func(s *Snapshot) int { return s.Stats.Recycled }},
	{"graph_nodes_collected_total", false, func(s *Snapshot) int { return s.Stats.Collected }},
	{"graph_merges_total", false, func(s *Snapshot) int { return s.Stats.Merged }},
	{"graph_cycle_checks_total", false, func(s *Snapshot) int { return s.Stats.CycleChecks }},
	{"graph_cycles_detected_total", false, func(s *Snapshot) int { return s.Stats.CyclesDetected }},
	{"graph_edges_added_total", false, func(s *Snapshot) int { return s.Stats.EdgesAdded }},
	{MetricMemoHits, false, func(s *Snapshot) int { return s.Stats.FilteredEdges }},
	{MetricNodesAlive, true, func(s *Snapshot) int { return s.Stats.Alive }},
	{"graph_nodes_max_alive", true, func(s *Snapshot) int { return s.Stats.MaxAlive }},
	{"graph_edges_alive", true, func(s *Snapshot) int { return s.Stats.Edges }},
	{MetricFiltered, false, func(s *Snapshot) int { return int(s.Filtered) }},
	{MetricWarnings, false, func(s *Snapshot) int { return s.Warnings }},
	{"velodrome_warnings_increasing_total", false, func(s *Snapshot) int { return s.Increasing }},
	{"velodrome_blame_assigned_total", false, func(s *Snapshot) int { return s.Blamed }},
	{"velodrome_blocks_refuted_total", false, func(s *Snapshot) int { return s.Refuted }},
	{"core_aero_subscribers_peak", true, func(s *Snapshot) int { return s.AeroSubsPeak }},
}

// Publisher writes one engine's Snapshots, and the stage accumulators of
// the span buffer the engine books to, onto an obs.Registry: gauges are
// set, counters advanced by the change since the last Publish. Call it
// from the goroutine that steps the engine, at batch boundaries; the
// registry may be scraped from any goroutine meanwhile, at most a batch
// stale.
type Publisher struct {
	reg   *obs.Registry
	spans *span.Buf        // nil: no velodrome_stage_* family is written
	last  map[string]int64 // each counter's total as of the last Publish
}

// NewPublisher returns a Publisher onto reg; spans may be nil.
func NewPublisher(reg *obs.Registry, spans *span.Buf) *Publisher {
	return &Publisher{reg: reg, spans: spans, last: map[string]int64{}}
}

// Publish writes s and the span buffer's current stage totals.
func (p *Publisher) Publish(s Snapshot) {
	for _, f := range families {
		if v := int64(f.value(&s)); f.gauge {
			p.reg.Gauge(f.name).Set(v)
		} else {
			p.advance(f.name, v)
		}
	}
	for st := span.Stage(0); st < span.NumStages; st++ {
		if hits := p.spans.StageHits(st); hits > 0 {
			p.advance(fmt.Sprintf("velodrome_stage_ns_total{stage=%q}", st), p.spans.StageNs(st))
			p.advance(fmt.Sprintf("velodrome_stage_ops_total{stage=%q}", st), hits)
		}
	}
}

// advance brings the counter called name up to total.
func (p *Publisher) advance(name string, total int64) {
	p.reg.Counter(name).Add(total - p.last[name])
	p.last[name] = total
}
