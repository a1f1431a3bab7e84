package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/span"
	"repro/internal/trace"
)

// Layer measurements shared by every workload: the trace codecs, the
// engines and the staged pipeline, each timed from outside through its
// public functions on the workload's own inputs, in isolation (nothing
// else running). A figure is, per input, the fastest of the passes that
// fit in that input's share of layerBudget, summed over the inputs and
// divided by the events in them — the same construction as the end-to-end
// figures it is compared with (see tally).

// layerBudget is how long one layer measurement may repeat its passes.
func (c *config) layerBudget() time.Duration {
	if c.smoke {
		return 10 * time.Millisecond
	}
	return 500 * time.Millisecond
}

// checkerLayers measures trace.*, core.*, graph.* and pipeline.* on
// inputs, recording one span per measurement on ln.
func checkerLayers(c *config, inputs []*input, ln *lane) (map[string]float64, error) {
	m := map[string]float64{}
	events := 0
	for _, in := range inputs {
		events += len(in.ops)
	}
	if events == 0 {
		return nil, fmt.Errorf("no events to measure layers on")
	}
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(events) }
	// timedFor runs fn on every input, again and again within budget, and
	// returns the sum of each input's fastest time.
	timedFor := func(budget time.Duration, name string, fn func(i int, in *input)) time.Duration {
		var sum time.Duration
		ln.span(name, func() {
			for i, in := range inputs {
				sum += timeReps(budget/time.Duration(len(inputs)), func() { fn(i, in) })
			}
		})
		return sum
	}
	timed := func(name string, fn func(i int, in *input)) time.Duration {
		return timedFor(c.layerBudget(), name, fn)
	}
	// The two terms of every ledger get four times the repetitions, so
	// that they meet as quiet a moment as the window they are set against.
	ledgerBudget := 4 * c.layerBudget()
	all := func(fn func(i int, in *input)) func() {
		return func() {
			for i, in := range inputs {
				fn(i, in)
			}
		}
	}

	// Codecs.
	texts := make([][]byte, len(inputs))
	var binBytes, textBytes int
	for i, in := range inputs {
		var buf bytes.Buffer
		if err := trace.Marshal(&buf, in.ops); err != nil {
			return nil, fmt.Errorf("text-encoding %s: %w", in.name, err)
		}
		texts[i] = buf.Bytes()
		binBytes += len(in.bin)
		textBytes += len(texts[i])
	}
	m["trace.bytes_per_event_bin"] = float64(binBytes) / float64(events)
	m["trace.bytes_per_event_text"] = float64(textBytes) / float64(events)
	var decodeErr error
	drain := func(data []byte) {
		d := trace.NewDecoder(bytes.NewReader(data))
		for {
			if _, err := d.Next(); err != nil {
				if err != io.EOF && decodeErr == nil {
					decodeErr = err
				}
				return
			}
		}
	}
	decodeBin := func(_ int, in *input) { drain(in.bin) }
	m["trace.decode_bin_ns_per_event"] = perEvent(timedFor(ledgerBudget, "trace.Decoder.Next(bin)", decodeBin))
	m["trace.decode_allocs_per_event"] = float64(mallocs(all(decodeBin))) / float64(events)
	m["trace.decode_text_ns_per_event"] = perEvent(timed("trace.Decoder.Next(text)", func(i int, _ *input) { drain(texts[i]) }))
	if decodeErr != nil {
		return nil, fmt.Errorf("decoding a generated trace: %w", decodeErr)
	}
	m["trace.encode_bin_ns_per_event"] = perEvent(timed("trace.MarshalBinary", func(_ int, in *input) {
		_ = trace.MarshalBinary(io.Discard, in.ops) // io.Discard cannot fail
	}))
	m["trace.encode_text_ns_per_event"] = perEvent(timed("trace.Emitter.Emit", func(_ int, in *input) {
		e := trace.NewEmitter(io.Discard)
		for _, op := range in.ops {
			e.Emit(op)
		}
		_ = e.Flush() // io.Discard cannot fail
	}))

	// Engines, over the pre-decoded slices.
	step := func(opts core.Options) func(int, *input) {
		return func(_ int, in *input) { core.CheckTrace(in.ops, opts) }
	}
	base := timedFor(ledgerBudget, "core.CheckTrace", step(core.Options{}))
	m["core.step_ns_per_event"] = perEvent(base)
	m["core.allocs_per_event"] = float64(mallocs(all(step(core.Options{})))) / float64(events)
	m["core.step_nofilter_ns_per_event"] = perEvent(timed("core.CheckTrace(NoFilter)", step(core.Options{NoFilter: true})))
	m["core.aero_step_ns_per_event"] = perEvent(timed("core.CheckTrace(Aero)", step(core.Options{Engine: core.Aero})))
	m["core.basic_step_ns_per_event"] = perEvent(timed("core.CheckTrace(Basic)", step(core.Options{Engine: core.Basic})))
	forensics := timed("core.CheckTrace(Forensics)", step(core.Options{Forensics: true}))
	m["core.forensics_overhead_share"] = float64(forensics-base) / float64(base)

	// The engine's own stage accumulators: what switching them on costs,
	// and where the engine says the time went (each input's lowest
	// reading). Forensics assembly only shows with both on, so one extra
	// untimed pass reads it.
	filterNs, graphNs := make([]int64, len(inputs)), make([]int64, len(inputs))
	spans := timed("core.CheckTrace(Spans)", func(i int, in *input) {
		sb := span.New().Buffer("engine")
		core.CheckTrace(in.ops, core.Options{Spans: sb})
		if f := sb.StageNs(span.StageFilter); filterNs[i] == 0 || f < filterNs[i] {
			filterNs[i] = f
		}
		if g := sb.StageNs(span.StageGraph); graphNs[i] == 0 || g < graphNs[i] {
			graphNs[i] = g
		}
	})
	var filterSum, graphSum, forensicsSum int64
	for i, in := range inputs {
		sb := span.New().Buffer("engine")
		core.CheckTrace(in.ops, core.Options{Spans: sb, Forensics: true})
		forensicsSum += sb.StageNs(span.StageForensics)
		filterSum += filterNs[i]
		graphSum += graphNs[i]
	}
	m["core.spans_overhead_share"] = float64(spans-base) / float64(base)
	m["core.stage_filter_ns_per_event"] = float64(filterSum) / float64(events)
	m["core.stage_graph_ns_per_event"] = float64(graphSum) / float64(events)
	m["core.stage_forensics_ns_per_event"] = float64(forensicsSum) / float64(events)

	// Exact counts: fixed by the inputs, so fixed by the seed.
	var filtered int64
	var warnings, allocated, maxAlive, filteredEdges int
	for _, in := range inputs {
		res := core.CheckTrace(in.ops, core.Options{})
		filtered += res.Filtered
		warnings += len(res.Warnings)
		allocated += res.Stats.Allocated
		filteredEdges += res.Stats.FilteredEdges
		if res.Stats.MaxAlive > maxAlive {
			maxAlive = res.Stats.MaxAlive
		}
	}
	m["core.filtered_share"] = float64(filtered) / float64(events)
	m["core.warnings"] = float64(warnings)
	m["graph.nodes_allocated"] = float64(allocated)
	m["graph.max_alive"] = float64(maxAlive)
	m["graph.filtered_edges"] = float64(filteredEdges)

	// The staged pipeline against the serial stream loop, same bytes.
	workers := min(2, runtime.NumCPU())
	skipped, piped := make([]int64, len(inputs)), make([]int64, len(inputs))
	serial := timed("core.CheckStream", func(_ int, in *input) {
		_, _, _ = core.CheckStream(trace.NewDecoder(bytes.NewReader(in.bin)), core.Options{})
	})
	staged := timed("pipeline.CheckStream", func(i int, in *input) {
		var st pipeline.Stats
		_, _, _ = pipeline.CheckStream(trace.NewDecoder(bytes.NewReader(in.bin)), core.Options{},
			pipeline.Config{Workers: workers, Stats: &st})
		skipped[i], piped[i] = st.Skipped, st.Ops
	})
	m["pipeline.w2_ns_per_event"] = perEvent(staged)
	m["pipeline.speedup_w2_x"] = float64(serial) / float64(staged)
	var skippedSum, pipedSum int64
	for i := range inputs {
		skippedSum += skipped[i]
		pipedSum += piped[i]
	}
	if pipedSum > 0 {
		m["pipeline.skipped_share"] = float64(skippedSum) / float64(pipedSum)
	}
	return m, nil
}
