package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/span"
)

// TestSmoke runs every workload at about 1% size, untraced and traced, so
// that `go test ./...` catches a benchmark broken by an API change. It
// measures nothing: it checks that every metric BENCHMARK.json names is
// emitted, finite and carries its unit, that every output matches its
// reference verdict, that the counts fixed by the seed repeat exactly, and
// that the span timelines are well formed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds velodromed and the instrumented target; skipped under -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	agree(t, "end_to_end", bench.EndToEnd, endToEndMetrics)
	agree(t, "per_layer", bench.PerLayer, perLayerMetrics)
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(bench.Workloads), len(workloadNames))
	}

	c := &config{seed: 1, seconds: 0.3, smoke: true, workDir: t.TempDir(), outDir: t.TempDir()}
	for i, w := range bench.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloadNames[i])
		}
		recs, err := execute(c, w.Name, true, true)
		if err != nil {
			t.Fatal(err)
		}
		untraced, traced := recs[0], recs[1]
		complete(t, untraced, bench.EndToEnd, true)
		complete(t, traced, bench.PerLayer, false)

		data, err := os.ReadFile(traced.ChromeTrace)
		if err != nil {
			t.Fatal(err)
		}
		if spans, err := span.ValidateChrome(data); err != nil || spans == 0 {
			t.Errorf("%s: Chrome trace %s: %d spans, %v", w.Name, traced.ChromeTrace, spans, err)
		}

		if !seedFixesCounts(w.Name) {
			continue
		}
		again, err := execute(c, w.Name, false, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayerMetrics {
			if a, b := traced.Metrics[d.name].Value, again[0].Metrics[d.name].Value; d.exact && a != b {
				t.Errorf("%s: %s is %v in one run and %v in the next of the same seed", w.Name, d.name, a, b)
			}
		}
	}
}

// agree fails when BENCHMARK.json and the program's catalog differ.
func agree(t *testing.T, section string, file []benchMetric, program []metricDef) {
	t.Helper()
	if len(file) != len(program) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", section, len(file), len(program))
	}
	for i, d := range program {
		if got := file[i]; got != (benchMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound}) {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", section, i, got, d)
		}
	}
}

// complete fails unless the run is correct and carries every metric of
// defs as a finite number with its unit (and above zero, where the driver
// requires that).
func complete(t *testing.T, r *record, defs []benchMetric, positive bool) {
	t.Helper()
	if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Failures)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", r.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", r.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || positive && m.Value <= 0:
			t.Errorf("%s: %s = %v", r.Workload, d.Name, m.Value)
		}
	}
}
