package core_test

import (
	"fmt"
	"io"
	"maps"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rr"
	"repro/internal/span"
	"repro/internal/trace"
)

// setAdd is the paper's non-serializable Set.add interleaving.
var setAdd = trace.Trace{
	trace.Beg(1, "Set.add"),
	trace.Rd(1, 0),
	trace.Wr(2, 0),
	trace.Wr(1, 0),
	trace.Fin(1),
}

// published checks tr with a span buffer attached, publishes the result
// once and returns it with the registry's snapshot and the buffer.
func published(tr trace.Trace, opts core.Options) (*core.Result, obs.Snapshot, *span.Buf) {
	sb := span.New().Buffer("engine")
	opts.Spans = sb
	res := core.CheckTrace(tr, opts)
	reg := obs.NewRegistry()
	core.NewPublisher(reg, sb).Publish(res.Snapshot)
	return res, reg.Snapshot(), sb
}

// TestMetricsPopulated: for every registered engine, the registry a
// Publisher fills holds exactly the documented families, each equal to
// its field of the Result's snapshot, plus the stage accumulators of the
// span buffer under the stages' own names.
func TestMetricsPopulated(t *testing.T) {
	multiset := rr.Run(rr.Options{Seed: 1, Record: true}, func(th *rr.Thread) {
		bench.ByName("multiset").Body(th, bench.Params{Scale: 2})
	}).Trace
	for _, info := range core.Engines() {
		for name, tr := range map[string]trace.Trace{"setAdd": setAdd, "multiset": multiset} {
			res, snap, sb := published(tr, core.Options{Engine: info.Engine})
			st := res.Stats
			counters := map[string]int64{
				"graph_nodes_allocated_total":         int64(st.Allocated),
				"graph_nodes_recycled_total":          int64(st.Recycled),
				"graph_nodes_collected_total":         int64(st.Collected),
				"graph_merges_total":                  int64(st.Merged),
				"graph_cycle_checks_total":            int64(st.CycleChecks),
				"graph_cycles_detected_total":         int64(st.CyclesDetected),
				"graph_edges_added_total":             int64(st.EdgesAdded),
				"graph_edges_memo_hits_total":         int64(st.FilteredEdges),
				"core_events_filtered_total":          res.Filtered,
				"velodrome_warnings_total":            int64(res.Snapshot.Warnings),
				"velodrome_warnings_increasing_total": int64(res.Increasing),
				"velodrome_blame_assigned_total":      int64(res.Blamed),
				"velodrome_blocks_refuted_total":      int64(res.Refuted),
			}
			for s := span.Stage(0); s < span.NumStages; s++ {
				if sb.StageHits(s) > 0 {
					counters[fmt.Sprintf("velodrome_stage_ns_total{stage=%q}", s.String())] = sb.StageNs(s)
					counters[fmt.Sprintf("velodrome_stage_ops_total{stage=%q}", s.String())] = sb.StageHits(s)
				}
			}
			gauges := map[string]int64{
				"graph_nodes_alive":          int64(st.Alive),
				"graph_nodes_max_alive":      int64(st.MaxAlive),
				"graph_edges_alive":          int64(st.Edges),
				"core_aero_subscribers_peak": int64(res.AeroSubsPeak),
			}
			if !maps.Equal(snap.Counters, counters) {
				t.Errorf("%s, %s: counters %v, want %v", info.Name, name, snap.Counters, counters)
			}
			if !maps.Equal(snap.Gauges, gauges) {
				t.Errorf("%s, %s: gauges %v, want %v", info.Name, name, snap.Gauges, gauges)
			}
			if len(snap.Histograms) != 0 {
				t.Errorf("%s, %s: histograms %v, want none", info.Name, name, snap.Histograms)
			}
			if res.Snapshot.Warnings != len(res.Warnings) || res.Snapshot.Warnings == 0 {
				t.Errorf("%s, %s: snapshot counts %d warnings, result holds %d", info.Name, name, res.Snapshot.Warnings, len(res.Warnings))
			}
			if ops := counters[`velodrome_stage_ops_total{stage="filter"}`] + counters[`velodrome_stage_ops_total{stage="graph"}`]; ops == 0 {
				t.Errorf("%s, %s: no filter or graph stage operations published", info.Name, name)
			}
			if name == "setAdd" && info.Engine != core.Aero && (st.CycleChecks == 0 || st.CyclesDetected != 1) {
				t.Errorf("%s: %d cycle checks, %d cycles detected on setAdd, want some and 1", info.Name, st.CycleChecks, st.CyclesDetected)
			}
			if name == "multiset" && info.Engine != core.Aero && (st.Collected == 0 || st.EdgesAdded == 0) {
				t.Errorf("%s: multiset collected %d nodes and added %d edges: the trace exercises too little", info.Name, st.Collected, st.EdgesAdded)
			}
		}
	}
}

// TestMetricsBlameCounters: the optimized engine credits increasing
// cycles, blame assignment and refuted blocks.
func TestMetricsBlameCounters(t *testing.T) {
	_, snap, _ := published(setAdd, core.Options{})
	for _, name := range []string{
		"velodrome_warnings_increasing_total",
		"velodrome_blame_assigned_total",
		"velodrome_blocks_refuted_total",
	} {
		if snap.Counters[name] != 1 {
			t.Errorf("%s = %d, want 1", name, snap.Counters[name])
		}
	}
}

// TestMetricsOffByDefault: a zero-value Options check — no span buffer,
// no publisher — works, and counts exactly what an observed one does.
func TestMetricsOffByDefault(t *testing.T) {
	res := core.CheckTrace(setAdd, core.Options{})
	if res.Serializable {
		t.Fatal("setAdd must be non-serializable")
	}
	if observed, _, _ := published(setAdd, core.Options{}); res.Snapshot != observed.Snapshot {
		t.Errorf("unobserved snapshot %+v, observed %+v", res.Snapshot, observed.Snapshot)
	}
}

// TestMetricsConcurrentScrape snapshots the registry from another
// goroutine while the driver publishes at every batch boundary — the
// live-/metrics-endpoint scenario — and is meant to run under -race
// (tier-1 recipe).
func TestMetricsConcurrentScrape(t *testing.T) {
	const batches = 2000
	reg := obs.NewRegistry()
	sb := span.New().Buffer("engine")
	pub := core.NewPublisher(reg, sb)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				snap := reg.Snapshot()
				snap.Prometheus()
			}
		}
	}()
	n := 0
	src := func() (core.Batch, error) {
		if n++; n == batches {
			return core.Batch{Ops: setAdd}, io.EOF
		}
		return core.Batch{Ops: setAdd}, nil
	}
	var c core.Checker
	res, ops, err := core.Check(src, core.Options{Spans: sb}, &core.Observer{
		Checker: func(ck core.Checker) { c = ck },
		Batch:   func(int, int) { pub.Publish(c.Snapshot()) },
	})
	close(done)
	wg.Wait()
	if err != nil || ops != batches*len(setAdd) {
		t.Fatalf("checked %d ops, err %v", ops, err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["velodrome_warnings_total"]; got != batches || res.Snapshot.Warnings != batches {
		t.Errorf("warnings counter %d, result %d, want %d: a counter advances by the change, not the total", got, res.Snapshot.Warnings, batches)
	}
	if got := snap.Counters["graph_nodes_allocated_total"]; got != int64(res.Stats.Allocated) {
		t.Errorf("allocated counter %d, result %d", got, res.Stats.Allocated)
	}
	if got, want := snap.Counters[`velodrome_stage_ops_total{stage="graph"}`], sb.StageHits(span.StageGraph); got != want || want == 0 {
		t.Errorf("graph stage operations: counter %d, buffer %d", got, want)
	}
}

// TestGraphRecycledStat: the pool-reuse counter sees GC'd nodes come
// back from the free list.
func TestGraphRecycledStat(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 10; i++ {
		tr = append(tr, trace.Wr(1, 0)) // each wraps in a unary txn, GC'd at once
	}
	st := core.CheckTrace(tr, core.Options{NoMerge: true}).Stats
	if st.Recycled == 0 {
		t.Fatalf("expected free-list reuse, stats: %+v", st)
	}
}
