package core_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/graph"
	"repro/internal/trace"
)

// perCheckAllocs is what one check may allocate that is not its output:
// the checker and its graph, and the growth of the node pool, of the first
// incarnations' edge and ancestor arrays, of the scratch buffers and of the
// per-thread, per-lock and per-variable tables as the trace names more of
// each (the Figure 2 engine keeps its tables in maps, one per variable for
// R). It grows with what the trace names, not with how long it is.
var perCheckAllocs = map[core.Engine]int{core.Optimized: 192, core.Basic: 512}

// TestDenseAllocBudget names everything a graph engine may allocate on
// the violation-dense corpus: per check, the engine's perCheckAllocs; and
// for its output — a Cycle and its edges per cycle found, a Warning and
// its refuted labels per warning, a TxnMeta per transaction that gets a
// node — an eighth of an allocation each, because they are written into
// chunks of 8 to 256. Nothing per cycle, warning or transaction, and
// nothing per event, per edge or per ancestor entry: a node's arrays are
// recycled with it, and cycle extraction walks on the graph's scratch and
// copies once.
func TestDenseAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	corpus := denseCorpus(t)
	for eng, perCheck := range perCheckAllocs {
		name := core.InfoFor(eng).Name
		// A first pass counts what the budget is made of.
		var events, warnings, txns, cycles int
		for _, tr := range corpus {
			res := core.CheckTrace(tr, core.Options{Engine: eng})
			events += len(tr)
			warnings += len(res.Warnings)
			txns += res.Stats.Allocated
			cycles += res.Stats.CyclesDetected
		}
		got := testing.AllocsPerRun(3, func() {
			for _, tr := range corpus {
				core.CheckTrace(tr, core.Options{Engine: eng})
			}
		})
		budget := float64(perCheck*len(corpus) + (cycles+warnings+txns)/8)
		t.Logf("%s: %.0f allocations over %d events (%.3f/event); budget %.0f = %d×%d checks + (%d cycles + %d warnings + %d transactions)/8",
			name, got, events, got/float64(events), budget, perCheck, len(corpus), cycles, warnings, txns)
		if warnings < 1000 || cycles < warnings {
			t.Errorf("%s: %d warnings from %d cycles: the corpus is not violation-dense", name, warnings, cycles)
		}
		if got > budget {
			t.Errorf("%s: %.0f allocations per corpus pass, over the budget of %.0f", name, got, budget)
		}
	}
}

// hotloopTrace is the shape of the benchmark's target-hotloop stream: a
// flag written before two workers are forked, who then take turns at a
// transaction of 16 reads of it and a transaction of one critical
// section, until there are n events. Violation-free, and a transaction
// every 11 events.
func hotloopTrace(n int) trace.Trace {
	flag, mu := trace.Var(0), trace.Lock(0)
	tr := trace.Trace{trace.Wr(0, flag), trace.ForkOp(0, 1), trace.ForkOp(0, 2)}
	for w := trace.Tid(1); len(tr) < n; w = 3 - w {
		tr = append(tr, trace.Beg(w, "poll"))
		for i := 0; i < 16; i++ {
			tr = append(tr, trace.Rd(w, flag))
		}
		tr = append(tr, trace.Fin(w), trace.Beg(w, "update"), trace.Acq(w, mu), trace.Rel(w, mu), trace.Fin(w))
	}
	return tr
}

// TestHotloopAllocBudget: on the instrumented target's stream the graph
// engine's only output is a TxnMeta per transaction — 9 000 of them in
// 100 000 events — and they cost a chunk per 256. AeroDrome writes its
// TxnMeta into the same chunks; what it still allocates is a clock object
// per transaction and the clock's components.
func TestHotloopAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	tr := hotloopTrace(100_000)
	for _, c := range []struct {
		engine   core.Engine
		perEvent float64
	}{{core.Optimized, 0.01}, {core.Aero, 0.2}} {
		name, opts := core.InfoFor(c.engine).Name, core.Options{Engine: c.engine}
		res := core.CheckTrace(tr, opts)
		if !res.Serializable {
			t.Fatalf("%s: not serializable: not the hotloop shape", name)
		}
		if c.engine == core.Optimized && res.Stats.Allocated < len(tr)/12 {
			t.Fatalf("%d transactions in %d events: not the hotloop shape", res.Stats.Allocated, len(tr))
		}
		got := testing.AllocsPerRun(3, func() { core.CheckTrace(tr, opts) })
		t.Logf("%s: %.0f allocations over %d events (%.4f/event)", name, got, len(tr), got/float64(len(tr)))
		if got > c.perEvent*float64(len(tr)) {
			t.Errorf("%s: %.0f allocations over %d events, want at most %v an event", name, got, len(tr), c.perEvent)
		}
	}
}

// TestShortStreamFixedCost: what a stream costs before its first
// operation is sized by the stream when its length is known. Four
// operations from memory are the 16 KiB batch buffer, a 512-byte read
// buffer and the engine — not a socket's 64 KiB read buffer as well.
func TestShortStreamFixedCost(t *testing.T) {
	if raceBuild {
		t.Skip("allocation sizes differ under the race detector")
	}
	var buf bytes.Buffer
	tr := trace.Trace{trace.Beg(1, "inc"), trace.Rd(1, 0), trace.Wr(1, 0), trace.Fin(1)}
	if err := trace.MarshalBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, n, err := core.CheckStream(trace.NewDecoder(bytes.NewReader(buf.Bytes())), core.Options{}); err != nil || n != len(tr) {
			t.Fatalf("%d ops, err %v", n, err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per 4-op CheckStream", per)
	if per > 24<<10 {
		t.Errorf("a 4-op CheckStream allocates %d bytes, want at most %d", per, 24<<10)
	}
}

// TestWarningsStableAndDisjoint holds the chunks' lifetime rule from the
// outside. Stable: a warning reads the same when the check has ended as
// it did when Step returned it, the moment it was reported — as JSON, as
// text, as a dot graph, and as its provenance report — whatever the
// engine wrote into the same chunks after it. Disjoint: what a warning
// hands out ends where it ends (len == cap), so an append to one
// warning's labels or edges copies them and leaves its neighbour's alone.
func TestWarningsStableAndDisjoint(t *testing.T) {
	render := func(w *core.Warning) string {
		js, err := json.Marshal(w.JSON())
		if err != nil {
			t.Fatal(err)
		}
		out := string(js) + "\n" + w.String() + "\n" + dot.Render(w)
		if rep := w.Forensics(); rep != nil {
			out += rep.String() + dot.RenderReport(rep)
		}
		return out
	}
	warnings := 0
	for i, tr := range denseCorpus(t) {
		for _, opts := range []core.Options{{}, {Engine: core.Basic}, {Forensics: true}} {
			var reported []string
			c := core.New(opts)
			for _, op := range tr {
				if w := c.Step(op); w != nil {
					reported = append(reported, render(w))
				}
			}
			kept := c.Warnings()
			if len(kept) != len(reported) {
				t.Fatalf("trace %d %+v: %d warnings kept, %d reported", i, opts, len(kept), len(reported))
			}
			same := func(when string) {
				for k, w := range kept {
					if got := render(w); got != reported[k] {
						t.Fatalf("trace %d %+v, warning %d, %s: reads\n%s\nwas reported as\n%s", i, opts, k, when, got, reported[k])
					}
				}
			}
			same("after the check")
			for _, w := range kept {
				_ = append(w.Refuted, "scribbled")
				_ = append(w.Cycle.Edges, graph.CycleEdge{From: 9999, To: 9999, FromData: "scribbled"})
			}
			same("after appending to every warning's labels and edges")
			warnings += len(reported)
		}
	}
	if warnings < 3000 {
		t.Fatalf("%d warnings: the corpus is not reaching what this is for", warnings)
	}
}
