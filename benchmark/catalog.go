package main

// The metric and workload names fixed by this benchmark. BENCHMARK.json
// at the repository root carries the same names, units, directions and
// bounds for the driver; the smoke test fails when the two disagree.
// Later changes refer to metrics and workloads by these names: add new
// ones, never redefine an existing one.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before it counts as a regression; 0 for layer
	// metrics, which are evidence and carry no bound.
	bound float64
	// exact marks layer metrics that are counts fixed by the seed: two
	// runs of one seed must report them bit-for-bit equal (where
	// seedFixesCounts).
	exact bool
}

var workloadNames = []string{"check-loop", "check-dense", "daemon-stream", "target-hotloop"}

// seedFixesCounts reports whether the workload's trace, and so its exact
// metrics, depend on the seed alone. target-hotloop's is a live execution.
func seedFixesCounts(workload string) bool { return workload != "target-hotloop" }

// The bounds are three times the widest run-to-run spread seen on the host
// this was written on (distance between quartiles over median, ten seeds,
// 15 s windows: at most 4.4% on the four timing metrics), not the tenth the
// issue hoped for: a bound narrower than that cannot tell a regression from
// the host.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "cpu_us_per_event", unit: "us", better: "lower", bound: 0.15},
	{name: "sessions_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "verdict_p50_ms", unit: "ms", better: "lower", bound: 0.15},
}

var perLayerMetrics = []metricDef{
	{name: "trace.decode_bin_ns_per_event", unit: "ns", better: "lower"},
	{name: "trace.decode_text_ns_per_event", unit: "ns", better: "lower"},
	{name: "trace.decode_allocs_per_event", unit: "count", better: "lower"},
	{name: "trace.encode_bin_ns_per_event", unit: "ns", better: "lower"},
	{name: "trace.encode_text_ns_per_event", unit: "ns", better: "lower"},
	{name: "trace.bytes_per_event_bin", unit: "bytes", better: "lower"},
	{name: "trace.bytes_per_event_text", unit: "bytes", better: "lower"},

	{name: "core.step_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.step_nofilter_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.filtered_share", unit: "share", better: "higher", exact: true},
	{name: "core.allocs_per_event", unit: "count", better: "lower"},
	{name: "core.stage_filter_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.stage_graph_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.stage_forensics_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.aero_step_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.basic_step_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.spans_overhead_share", unit: "share", better: "lower"},
	{name: "core.forensics_overhead_share", unit: "share", better: "lower"},
	{name: "core.warnings", unit: "count", better: "lower", exact: true},
	{name: "graph.nodes_allocated", unit: "count", better: "lower", exact: true},
	{name: "graph.max_alive", unit: "count", better: "lower", exact: true},
	{name: "graph.filtered_edges", unit: "count", better: "higher", exact: true},

	{name: "pipeline.w2_ns_per_event", unit: "ns", better: "lower"},
	{name: "pipeline.speedup_w2_x", unit: "x", better: "higher"},
	{name: "pipeline.skipped_share", unit: "share", better: "higher"},

	{name: "server.ns_per_op", unit: "ns", better: "lower"},
	{name: "server.handoff_residual_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.transport_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.session_overhead_us", unit: "us", better: "lower"},
	{name: "server.verdict_codec_us", unit: "us", better: "lower"},
	{name: "server.verdict_p95_ms", unit: "ms", better: "lower"},
	{name: "server.verdict_p99_ms", unit: "ms", better: "lower"},
	{name: "server.busy_share", unit: "share", better: "lower"},
	{name: "server.error_share", unit: "share", better: "lower"},
	{name: "server.stage_decode_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.stage_filter_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.stage_graph_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.stage_verdict_ns_per_session", unit: "ns", better: "lower"},
	{name: "server.nospans_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.rss_peak_mb", unit: "MiB", better: "lower"},
	{name: "server.cpu_share", unit: "share", better: "lower"},

	{name: "store.append_fsync_us_p50", unit: "us", better: "lower"},
	{name: "store.append_fsync_us_p99", unit: "us", better: "lower"},
	{name: "store.append_nosync_us_p50", unit: "us", better: "lower"},
	{name: "store.bytes_per_record", unit: "bytes", better: "lower"},

	{name: "instr.slowdown_x", unit: "x", better: "lower"},
	{name: "instr.discard_slowdown_x", unit: "x", better: "lower"},
	{name: "instr.noprune_slowdown_x", unit: "x", better: "lower"},
	{name: "instr.shim_ns_per_event", unit: "ns", better: "lower"},
	{name: "instr.shim_bytes_per_event", unit: "bytes", better: "lower"},
	{name: "instr.pruned_share", unit: "share", better: "higher"},
	{name: "instr.consumer_busy_share", unit: "share", better: "lower"},
	{name: "instr.rewrite_ms", unit: "ms", better: "lower"},
	{name: "instr.build_ms", unit: "ms", better: "lower"},

	{name: "ledger.residual_share", unit: "share", better: "lower"},
	{name: "ledger.trace_overhead_share", unit: "share", better: "lower"},
}
