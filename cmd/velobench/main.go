// Command velobench regenerates the evaluation of the Velodrome paper
// (PLDI 2008, Section 6) on the Go reproduction:
//
//	velobench -table 1             Table 1 (timings + graph statistics)
//	velobench -table 2             Table 2 (Atomizer vs Velodrome warnings)
//	velobench -table 2 -adversarial   ... with the adversarial scheduler
//	velobench -smoke               every engine's verdicts on the loop regime; exit 1 on drift
//	velobench -inject              the 30% → 70% defect-injection study
//	velobench -policies            compare adversarial pause policies
//	velobench -ablate              merge/GC design-choice ablation
//	velobench -coverage            cumulative warnings per run
//	velobench -all                 everything
//
// Each table prints the paper's published numbers alongside the measured
// ones. See EXPERIMENTS.md for the recorded comparison. Per-layer
// ns/event and daemon sessions/s figures come from `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/report"
	"repro/internal/span"
)

func main() {
	table := flag.Int("table", 0, "reproduce table 1 or 2")
	smoke := flag.Bool("smoke", false, "cross-check every registered engine's verdicts on the loop-regime family; exit 1 on drift")
	inject := flag.Bool("inject", false, "run the defect-injection experiment")
	policyStudy := flag.Bool("policies", false, "compare adversarial pause policies on the injection trials")
	ablate := flag.Bool("ablate", false, "ablate the merge and GC design choices per benchmark")
	coverage := flag.Bool("coverage", false, "cumulative warnings per run (most appear on the first run)")
	all := flag.Bool("all", false, "run every experiment")
	adversarial := flag.Bool("adversarial", false, "use the Atomizer-guided adversarial scheduler (table 2)")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	timingScale := flag.Int("timing-scale", 20, "scale for table 1 timing runs")
	specFiltered := flag.Bool("spec-filtered", false, "table 1: exempt known non-atomic methods first (the paper's configuration)")
	seeds := flag.String("seeds", "1,2,3,4,5", "comma-separated scheduler seeds (the paper's five runs)")
	detail := flag.Bool("detail", false, "list flagged methods per benchmark (table 2)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event timeline with one span per experiment to this file")
	var oflags obs.CLIFlags
	oflags.Register(flag.CommandLine, obs.FlagMetrics|obs.FlagProfile)
	flag.Parse()
	logger, err := oflags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "velobench:", err)
		os.Exit(2)
	}

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "velobench:", err)
		os.Exit(2)
	}
	// The experiments time freshly constructed engines, so they stay
	// uninstrumented; the registry observes velobench itself and backs
	// the optional live endpoint (whose main payload here is pprof).
	reg := obs.NewRegistry()
	experiments := reg.Counter("velobench_experiments_total")
	if oflags.MetricsAddr != "" {
		_, addr, err := obshttp.Serve(oflags.MetricsAddr, reg)
		if err != nil {
			logger.Error("metrics server failed", "error", err)
			os.Exit(2)
		}
		logger.Info("serving metrics", "url", "http://"+addr.String())
	}
	stopProf, profPath, err := oflags.StartProfile()
	if err != nil {
		logger.Error("profile failed", "error", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			logger.Error("profile failed", "error", err)
			return
		}
		if profPath != "" {
			logger.Info("wrote profile", "kind", oflags.Profile, "path", profPath)
		}
	}()
	// The experiment tracer: inert (nil) without -trace-out. Each
	// experiment becomes one span on the exported timeline.
	var tracer *span.Tracer
	var sb *span.Buf
	var root span.SpanID
	if *traceOut != "" {
		tracer = span.New()
		sb = tracer.Buffer("velobench")
		root = sb.Start("velobench", 0)
	}
	ran := false
	// mark opens one experiment: it flips the ran flag, counts the
	// experiment, and returns a closure that closes its span.
	mark := func(name string) func() {
		ran = true
		experiments.Inc()
		id := sb.Start(name, root)
		return func() { sb.End(id) }
	}
	if *table == 1 || *all {
		done := mark("table1")
		var rows []exper.Table1Row
		if *specFiltered {
			fmt.Println("(known non-atomic methods exempted, as in the paper's measurement setup)")
			rows = exper.Table1SpecFiltered(seedList[0], *timingScale)
		} else {
			rows = exper.Table1(seedList[0], *timingScale)
		}
		report.Table1(os.Stdout, rows)
		fmt.Println()
		done()
	}
	if *table == 2 || *all {
		done := mark("table2")
		rows := exper.Table2(seedList, *scale, *adversarial)
		if *adversarial {
			fmt.Println("(adversarial scheduling enabled)")
		}
		report.Table2(os.Stdout, rows)
		if *detail {
			fmt.Println()
			report.MethodDetail(os.Stdout, rows)
		}
		fmt.Println()
		done()
	}
	if *smoke || *all {
		done := mark("smoke")
		rows := exper.Smoke(seedList[0], *scale*10)
		var engineCols []string
		for _, info := range core.Engines() {
			engineCols = append(engineCols, info.Name)
		}
		report.Smoke(os.Stdout, rows, engineCols)
		fmt.Println()
		drift := false
		for _, r := range rows {
			if r.Drift != "" {
				fmt.Fprintf(os.Stderr, "velobench: engine drift on %s: %s\n", r.Workload, r.Drift)
				drift = true
			}
		}
		done()
		if drift {
			os.Exit(1)
		}
	}
	if *inject || *all {
		done := mark("inject")
		res := exper.Inject([]string{"elevator", "colt"}, seedList, *scale)
		report.Inject(os.Stdout, res)
		fmt.Println()
		done()
	}
	if *coverage || *all {
		done := mark("coverage")
		report.Coverage(os.Stdout, exper.Coverage(seedList, *scale))
		fmt.Println()
		done()
	}
	if *ablate || *all {
		done := mark("ablate")
		rows := exper.Ablate(seedList[0], *scale*5)
		report.Ablate(os.Stdout, rows)
		fmt.Println()
		done()
	}
	if *policyStudy || *all {
		done := mark("policies")
		res := exper.PolicyStudy([]string{"elevator", "colt"}, seedList, *scale)
		report.Policies(os.Stdout, res)
		fmt.Println()
		done()
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if tracer != nil {
		sb.End(root)
		sb.Flush()
		if err := tracer.WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "velobench: trace-out:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote experiment timeline to %s\n", *traceOut)
	}
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return out, nil
}
