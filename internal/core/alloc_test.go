package core_test

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/graph"
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

// TestHotloopAllocBudget: on the instrumented target's stream the engine's
// only output is a TxnMeta per transaction — 9 000 of them in 100 000
// events — and they cost a chunk per 256.
func TestHotloopAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	tr := hotloopTrace(100_000)
	res := core.CheckTrace(tr, core.Options{})
	if !res.Serializable || res.Stats.Allocated < len(tr)/12 {
		t.Fatalf("serializable %v, %d transactions in %d events: not the hotloop shape", res.Serializable, res.Stats.Allocated, len(tr))
	}
	got := testing.AllocsPerRun(3, func() { core.CheckTrace(tr, core.Options{}) })
	t.Logf("%.0f allocations over %d events (%.4f/event), %d transactions", got, len(tr), got/float64(len(tr)), res.Stats.Allocated)
	if got > 0.01*float64(len(tr)) {
		t.Errorf("%.0f allocations over %d events, want at most 0.01 an event", got, len(tr))
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
// it did in Observer.Warning, the moment it was reported — as JSON, as
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
			res, _, err := core.Check(func() (core.Batch, error) { return core.Batch{Ops: tr}, io.EOF }, opts,
				&core.Observer{Warning: func(w *core.Warning) { reported = append(reported, render(w)) }})
			if err != nil || len(res.Warnings) != len(reported) {
				t.Fatalf("trace %d %+v: %d warnings kept, %d reported, err %v", i, opts, len(res.Warnings), len(reported), err)
			}
			same := func(when string) {
				for k, w := range res.Warnings {
					if got := render(w); got != reported[k] {
						t.Fatalf("trace %d %+v, warning %d, %s: reads\n%s\nwas reported as\n%s", i, opts, k, when, got, reported[k])
					}
				}
			}
			same("after the check")
			for _, w := range res.Warnings {
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
