// Command benchmark is the repository's one performance ledger: four
// workloads over the checker, the daemon and an instrumented target,
// measured end to end and layer by layer. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory explains them.
//
//	go run ./benchmark --workload check-loop --seed 1 --seconds 10 --trace 0
//	        one run of one workload; the last line of standard output is
//	        {"correct":…,"attempted":…,"failed":…,"metrics":{…}} with the
//	        end-to-end metrics (--trace 0) or the per-layer metrics of a
//	        traced run (--trace 1)
//	go run ./benchmark -seed 1 -runs 10 -out A.json
//	        every workload: -runs untraced runs on seeds seed, seed+1, …
//	        and one traced run, every metric printed by name with its unit
//	        and all of it written to A.json
//	go run ./benchmark -smoke
//	        the same at about 1% size, in a few seconds
//	go run ./benchmark -compare A.json B.json
//	        B against baseline A under BENCHMARK.json's bounds; exit 1 on a
//	        regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/exper"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "run this one workload and print the result object as the last line")
	seed := flag.Int64("seed", 1, "workload inputs depend on this and nothing else")
	seconds := flag.Float64("seconds", 15, "length of the measured window of a run")
	traced := flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	runs := flag.Int("runs", 1, "without -workload: untraced runs per workload, on consecutive seeds")
	out := flag.String("out", "", "without -workload: write the result file here")
	smoke := flag.Bool("smoke", false, "every size at about 1%: checks the benchmark, measures nothing")
	compare := flag.Bool("compare", false, "compare two result files: -compare BASELINE.json CHANGE.json")
	workDir := flag.String("workdir", ".bench_build", "scratch directory for binaries, sockets and stores")
	outDir := flag.String("tracedir", filepath.Join("benchmark", "out"), "directory for the Chrome trace-event files")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("usage: -compare BASELINE.json CHANGE.json"))
		}
		root, err := moduleRoot()
		if err != nil {
			return fail(err)
		}
		return compareFiles(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	c := &config{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir,
		// One directory per process, so concurrent or crashed runs never
		// share sockets or stores.
		workDir: filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid()))}
	if *smoke && !isSet("seconds") {
		c.seconds = 0.3
	}
	defer os.RemoveAll(c.workDir)

	if *workloadName != "" {
		recs, err := execute(c, *workloadName, *traced == 0, *traced != 0)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(recs[0].result)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		return 0
	}
	return suite(c, *runs, *out)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func isSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// hostInfo is the result file's host and noise block.
type hostInfo struct {
	exper.HostInfo
	Clients   int     `json:"client_goroutines"`
	LoadStart float64 `json:"loadavg_1m_start"`
	LoadEnd   float64 `json:"loadavg_1m_end"`
	// Noisy marks a run started on a host already busier than half its
	// CPUs: its timings are suspect.
	Noisy bool `json:"noisy"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host    hostInfo  `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Smoke   bool      `json:"smoke"`
	Runs    []*record `json:"runs"`
}

// suite runs every workload: `runs` untraced runs on consecutive seeds,
// the first of them followed by a traced run on the same set-up.
func suite(c *config, runs int, out string) int {
	host := hostInfo{HostInfo: exper.CollectHost(), Clients: clients(), LoadStart: loadAverage()}
	if host.LoadStart > 0.5*float64(host.NumCPU) {
		host.Noisy = true
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load average %.2f on %d CPUs before the first run; timings are suspect\n",
			host.LoadStart, host.NumCPU)
	}
	file := &resultFile{Host: host, Seed: c.seed, Seconds: c.seconds, Smoke: c.smoke}
	ok := true
	started := time.Now()
	for _, name := range workloadNames {
		for i := 0; i < runs; i++ {
			rc := *c
			rc.seed = c.seed + int64(i)
			recs, err := execute(&rc, name, true, i == 0)
			if err != nil {
				return fail(err)
			}
			for _, rec := range recs {
				printRecord(rec)
				ok = ok && rec.Correct
			}
			file.Runs = append(file.Runs, recs...)
		}
	}
	file.Host.LoadEnd = loadAverage()
	fmt.Printf("%d runs in %.1fs\n", len(file.Runs), time.Since(started).Seconds())
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: at least one output disagreed with its reference verdict")
		return 1
	}
	return 0
}

// printRecord prints every metric of a run by name, with its unit.
func printRecord(r *record) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("%s seed=%d %s: attempted=%d failed=%d samples=%d warm-up=%d\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Samples, r.WarmupSamples)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-40s %16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	if r.ChromeTrace != "" {
		fmt.Printf("  spans: %s\n", r.ChromeTrace)
	}
}
