package exper

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/forensic"
	"repro/internal/trace"
)

// validateReport checks one provenance report against the trace that
// produced it: every cycle edge's access pair must name real trace
// positions whose operations genuinely conflict on the resource the
// edge claims, and the flight-recorder windows must be ordered and in
// range. Fork/join edges are validated structurally — their accesses
// are the synthetic token variables of trace.Desugar, which share the
// trace index of the fork/join op itself.
func validateReport(t *testing.T, name string, tr trace.Trace, rep *forensic.Report) {
	t.Helper()
	n := int64(len(tr))
	if rep.OpIndex < 0 || rep.OpIndex >= n {
		t.Errorf("%s: report op index %d outside trace of %d ops", name, rep.OpIndex, n)
		return
	}
	if len(rep.Txns) == 0 || len(rep.Edges) == 0 {
		t.Errorf("%s: report without a cycle: %d txns, %d edges", name, len(rep.Txns), len(rep.Edges))
		return
	}
	if !rep.Edges[len(rep.Edges)-1].Closing {
		t.Errorf("%s: last edge not marked closing", name)
	}
	for i, e := range rep.Edges {
		if e.From < 0 || e.From >= len(rep.Txns) || e.To < 0 || e.To >= len(rep.Txns) {
			t.Errorf("%s edge %d: txn indices %d→%d outside %d txns", name, i, e.From, e.To, len(rep.Txns))
			continue
		}
		switch e.Kind {
		case "program-order":
			if e.Conflict != "" {
				t.Errorf("%s edge %d: program-order edge claims conflict %q", name, i, e.Conflict)
			}
		case "conflict":
			if e.Conflict == "" {
				t.Errorf("%s edge %d: conflict edge without a named resource", name, i)
				continue
			}
			if e.Head.Index < 0 || e.Head.Index >= n {
				t.Errorf("%s edge %d: head index %d outside trace", name, i, e.Head.Index)
				continue
			}
			head := tr[e.Head.Index]
			token := strings.Contains(e.Conflict, "token")
			if token {
				// Token accesses are synthesized while processing the
				// fork/join op holding that trace position.
				if head.Kind != trace.Fork && head.Kind != trace.Join {
					t.Errorf("%s edge %d: token conflict at op %d, but trace holds %s", name, i, e.Head.Index, head)
				}
			} else if head.String() != e.Head.Op {
				t.Errorf("%s edge %d: head op %q, trace[%d] = %s", name, i, e.Head.Op, e.Head.Index, head)
			}
			if e.Tail == nil {
				t.Errorf("%s edge %d: conflict edge without its tail access", name, i)
				continue
			}
			if e.Tail.Index < 0 || e.Tail.Index > e.Head.Index {
				t.Errorf("%s edge %d: tail index %d after head %d", name, i, e.Tail.Index, e.Head.Index)
				continue
			}
			tail := tr[e.Tail.Index]
			if !token {
				if tail.String() != e.Tail.Op {
					t.Errorf("%s edge %d: tail op %q, trace[%d] = %s", name, i, e.Tail.Op, e.Tail.Index, tail)
				}
				if !trace.Conflicts(tail, head) {
					t.Errorf("%s edge %d: claimed pair does not conflict: %s / %s", name, i, tail, head)
				}
				if got := forensic.ConflictTarget(head); got != e.Conflict {
					t.Errorf("%s edge %d: conflict %q, head accesses %q", name, i, e.Conflict, got)
				}
			}
		default:
			t.Errorf("%s edge %d: unknown kind %q", name, i, e.Kind)
		}
	}
	for _, tw := range rep.Threads {
		if len(tw.Ops) == 0 {
			t.Errorf("%s: empty flight-recorder window for t%d", name, tw.Thread)
		}
		last := int64(-1)
		for _, op := range tw.Ops {
			if op.Index < last {
				t.Errorf("%s: t%d window out of order: %d after %d", name, tw.Thread, op.Index, last)
			}
			last = op.Index
			if op.Index < 0 || op.Index >= n {
				t.Errorf("%s: t%d window references op %d outside trace", name, tw.Thread, op.Index)
			}
		}
	}
}

// BenchmarkForensics measures the per-event cost of the flight recorder
// on a redundancy-heavy loop workload and a violation-dense one. The
// recorded numbers live in EXPERIMENTS.md ("Forensics overhead").
func BenchmarkForensics(b *testing.B) {
	traces := corpusTraces(10)
	for _, wl := range []string{"rmwloop", "multiset"} {
		tr := traces[wl]
		for _, cfg := range []struct {
			name string
			opts core.Options
		}{
			{"off", core.Options{}},
			{"on", core.Options{Forensics: true}},
		} {
			b.Run(wl+"/"+cfg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.CheckTrace(tr, cfg.opts)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/event")
			})
		}
	}
}

// TestForensicsDifferentialOnBenchCorpus is the acceptance gate for the
// forensics layer. Across every workload trace and both engines:
// with the recorder off the result is bit-identical to a forensics-on
// run — same verdict, warning positions, blame, graph statistics and
// filter counters, and no warning carries a report — so recording
// cannot perturb the analysis; with it on, every warning carries a
// provenance report whose cycle edges check out against the trace.
func TestForensicsDifferentialOnBenchCorpus(t *testing.T) {
	scale := 4
	if testing.Short() {
		scale = 2
	}
	reports := 0
	for name, tr := range corpusTraces(scale) {
		for _, engine := range []core.Engine{core.Optimized, core.Basic} {
			off := core.CheckTrace(tr, core.Options{Engine: engine})
			on := core.CheckTrace(tr, core.Options{Engine: engine, Forensics: true})
			if off.Serializable != on.Serializable {
				t.Fatalf("%s engine %v: forensics flipped the verdict: off=%v on=%v",
					name, engine, off.Serializable, on.Serializable)
			}
			if off.Filtered != on.Filtered {
				t.Fatalf("%s engine %v: filtered %d events without forensics, %d with",
					name, engine, off.Filtered, on.Filtered)
			}
			if off.Stats != on.Stats {
				t.Fatalf("%s engine %v: graph stats diverge:\noff %+v\non  %+v",
					name, engine, off.Stats, on.Stats)
			}
			if len(off.Warnings) != len(on.Warnings) {
				t.Fatalf("%s engine %v: %d warnings without forensics, %d with",
					name, engine, len(off.Warnings), len(on.Warnings))
			}
			for i := range off.Warnings {
				// warnKey covers position, increasing flag, blame and
				// refutations. The cycle rendering itself is not compared:
				// when several readers' edges could close a cycle the engine
				// extracts whichever a map iteration surfaces first, so two
				// runs of the SAME configuration can already differ there.
				if a, b := warnKey(off.Warnings[i]), warnKey(on.Warnings[i]); a != b {
					t.Fatalf("%s engine %v warning %d:\noff %s\non  %s", name, engine, i, a, b)
				}
				if off.Warnings[i].Forensics() != nil {
					t.Fatalf("%s engine %v warning %d: report with forensics off", name, engine, i)
				}
				rep := on.Warnings[i].Forensics()
				if rep == nil {
					t.Fatalf("%s engine %v warning %d: no report with forensics on", name, engine, i)
				}
				validateReport(t, name, tr, rep)
				reports++
			}
		}
	}
	if reports == 0 {
		t.Fatal("corpus produced no warnings — the differential test checked nothing")
	}
	t.Logf("validated %d provenance reports", reports)
}
