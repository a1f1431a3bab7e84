package exper

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/forensic"
	"repro/internal/trace"
)

// reportsGolden pins every provenance report the graph engines produce
// over the corpus and the repository's testdata traces: per input and
// engine, how many reports and a digest of their three renderings — the
// -explain text, the JSON line and dot.RenderReport. Where an edge's
// provenance is kept is the engines' business and may change; a byte of
// a report may not, without this file saying so. Regenerate, at both
// scales, with
//
//	go test ./internal/exper -run ForensicsDifferential -update-forensic-golden
//	go test ./internal/exper -run ForensicsDifferential -update-forensic-golden -short
const reportsGolden = "testdata/forensic_reports.golden"

var updateReportsGolden = flag.Bool("update-forensic-golden", false, "rewrite "+reportsGolden+" for the scale being run")

// reportsDigest is one golden line without its key.
func reportsDigest(t *testing.T, warns []*core.Warning) string {
	h := sha256.New()
	for _, w := range warns {
		rep := w.Forensics()
		js, err := rep.MarshalJSONLine()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n%s\n", rep, js, dot.RenderReport(rep))
	}
	return fmt.Sprintf("%d %x", len(warns), h.Sum(nil)[:12])
}

// checkGolden compares got (key → value, keys starting with prefix) with
// the lines of the golden file at path under the same prefix, or under
// update replaces those lines with got.
func checkGolden(t *testing.T, path string, update bool, prefix string, got map[string]string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !update {
		t.Fatal(err)
	}
	var others []string
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, value, _ := strings.Cut(line, " = ")
		if strings.HasPrefix(key, prefix) {
			want[key] = value
		} else if line != "" {
			others = append(others, line)
		}
	}
	if update {
		for key, value := range got {
			others = append(others, key+" = "+value)
		}
		slices.Sort(others)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(others, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key, value := range got {
		if want[key] != value {
			t.Errorf("%s:\n got    %s\n golden %s", key, value, want[key])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d inputs under %q, %s lists %d", len(got), prefix, path, len(want))
	}
}

// checkReportsGolden is checkGolden on reportsGolden.
func checkReportsGolden(t *testing.T, prefix string, got map[string]string) {
	t.Helper()
	checkGolden(t, reportsGolden, *updateReportsGolden, prefix, got)
}

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
// forensics layer's reports. Across every workload trace, the
// repository's testdata traces and every engine that supports forensics,
// each warning of a forensics-on run carries a provenance report whose
// cycle edges check out against the trace, and every report is, byte for
// byte, the one reportsGolden pins — edges refreshed through the
// last-edge memo and edges into merged unary nodes included. That the
// recorder perturbs nothing, and that with it off no warning carries a
// report, is held by internal/core's conformance matrix (matrix_test.go).
func TestForensicsDifferentialOnBenchCorpus(t *testing.T) {
	scale := 4
	if testing.Short() {
		scale = 2
	}
	reports, intoUnary, memoHits := 0, 0, 0
	diff := func(name string, tr trace.Trace, digests map[string]string) {
		for _, info := range core.Engines() {
			if !info.SupportsForensics {
				continue
			}
			on := core.CheckTrace(tr, core.Options{Engine: info.Engine, Forensics: true})
			for i, w := range on.Warnings {
				rep := w.Forensics()
				if rep == nil {
					t.Fatalf("%s engine %s warning %d: no report with forensics on", name, info.Name, i)
				}
				validateReport(t, name, tr, rep)
				for _, e := range rep.Edges {
					if rep.Txns[e.To].Unary {
						intoUnary++
					}
				}
				reports++
			}
			if len(on.Warnings) > 0 {
				digests[name+"/"+info.Name] = reportsDigest(t, on.Warnings)
				memoHits += on.Stats.FilteredEdges
			}
		}
	}

	prefix, digests := fmt.Sprintf("scale=%d/", scale), map[string]string{}
	for name, tr := range corpusTraces(scale) {
		diff(prefix+name, tr, digests)
	}
	checkReportsGolden(t, prefix, digests)

	files, err := filepath.Glob("../../testdata/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata traces: %v", err)
	}
	digests = map[string]string{}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.NewDecoder(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		diff("testdata/"+filepath.Base(file), tr, digests)
	}
	checkReportsGolden(t, "testdata/", digests)

	if reports == 0 || intoUnary == 0 || memoHits == 0 {
		t.Fatalf("%d reports, %d edges into merged unary nodes, %d last-edge memo refreshes in the runs behind them: the differential is not reaching what it is for",
			reports, intoUnary, memoHits)
	}
	t.Logf("validated %d provenance reports (%d edges into unary nodes)", reports, intoUnary)
}
