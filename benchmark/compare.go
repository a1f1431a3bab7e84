package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// -compare: a change's result file against a baseline's, under the bounds
// BENCHMARK.json fixes. One row per end-to-end metric and workload, with
// both medians, both quartile pairs and the ratio change ÷ baseline.

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (the exclusive method), so
// the spreads printed here are the ones the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func compareFiles(benchPath, basePath, changePath string) int {
	var bench benchmarkFile
	var base, change resultFile
	for path, v := range map[string]any{benchPath: &bench, basePath: &base, changePath: &change} {
		if err := readJSON(path, v); err != nil {
			return fail(err)
		}
	}
	values := func(f *resultFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				out = append(out, m.Value)
			}
		}
		return out
	}
	bad := 0
	fmt.Printf("baseline %s (%d runs), change %s (%d runs); ratio = change ÷ baseline\n",
		basePath, len(base.Runs), changePath, len(change.Runs))
	if base.Host.Noisy || change.Host.Noisy {
		fmt.Println("note: at least one file was recorded on a host that was already busy (host.noisy)")
	}
	fmt.Printf("%-18s %-16s %13s %27s %13s %27s %7s  %s\n",
		"metric", "workload", "base median", "[q1, q3]", "change median", "[q1, q3]", "ratio", "verdict")
	for _, m := range bench.EndToEnd {
		for _, w := range bench.Workloads {
			a, b := values(&base, w.Name, m.Name), values(&change, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-18s %-16s missing from one file\n", m.Name, w.Name)
				bad++
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worse := (b2 - a2) / a2 // how much worse the change's median is
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.0f%%)", 100*worse, 100*m.Bound)
				bad++
			case allBetter(a, b, m.Better):
				verdict = "improved (every run)"
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% exceeds bound %.0f%%)", 100*spread, 100*m.Bound)
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-18s %-16s %13.6g [%12.6g,%12.6g] %13.6g [%12.6g,%12.6g] %7.3f  %s\n",
				m.Name, w.Name, a2, a1, a3, b2, b1, b3, b2/a2, verdict)
		}
	}

	// Operations failed ÷ attempted may not rise at all.
	for _, w := range bench.Workloads {
		fa, fb := failedShare(&base, w.Name), failedShare(&change, w.Name)
		if fb > fa {
			fmt.Printf("%-18s %-16s %13.6g %27s %13.6g %27s %7s  REGRESSION (any rise fails)\n", "failed_share", w.Name, fa, "", fb, "", "")
			bad++
		}
	}

	// Counts fixed by the seed must be bit-for-bit equal where both files
	// hold a traced run of the same workload and seed.
	exact := map[string]bool{}
	for _, d := range perLayerMetrics {
		exact[d.name] = d.exact
	}
	for _, ra := range base.Runs {
		for _, rb := range change.Runs {
			if !ra.Traced || !rb.Traced || ra.Workload != rb.Workload || ra.Seed != rb.Seed || !seedFixesCounts(ra.Workload) {
				continue
			}
			for name, va := range ra.Metrics {
				if vb := rb.Metrics[name]; exact[name] && va.Value != vb.Value {
					fmt.Printf("%-28s %-16s seed %d: %v vs %v  DIFFERS (an exact count)\n", name, ra.Workload, ra.Seed, va.Value, vb.Value)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d rows fail\n", bad)
		return 1
	}
	return 0
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func failedShare(f *resultFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
