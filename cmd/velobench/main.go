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
// A flag that no selected experiment reads (-detail and -adversarial
// are table 2's, -spec-filtered and -timing-scale table 1's, -scale every
// other experiment's) exits 2. Each table prints the paper's published
// numbers alongside the measured ones. See EXPERIMENTS.md for the
// recorded comparison. Per-layer ns/event and daemon sessions/s figures
// come from `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/obs"
	"repro/internal/report"
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
	var f cli.Flags
	f.Register(flag.CommandLine, "velobench", cli.TraceOut|cli.Log|cli.Metrics|cli.Profile)
	var seedList []int64
	drift := false
	// The experiments in the order they run; each is a mode of the
	// command-line contract, and a flag no selected one reads is refused.
	exps := []struct {
		mode, span string
		on         func() bool
		run        func()
	}{
		{"-table 1", "table1", func() bool { return *table == 1 }, func() {
			rows := exper.Table1
			if *specFiltered {
				fmt.Println("(known non-atomic methods exempted, as in the paper's measurement setup)")
				rows = exper.Table1SpecFiltered
			}
			report.Table1(os.Stdout, rows(seedList[0], *timingScale))
		}},
		{"-table 2", "table2", func() bool { return *table == 2 }, func() {
			rows := exper.Table2(seedList, *scale, *adversarial)
			if *adversarial {
				fmt.Println("(adversarial scheduling enabled)")
			}
			report.Table2(os.Stdout, rows)
			if *detail {
				fmt.Println()
				report.MethodDetail(os.Stdout, rows)
			}
		}},
		{"-smoke", "smoke", func() bool { return *smoke }, func() {
			rows := exper.Smoke(seedList[0], *scale*10)
			var engineCols []string
			for _, info := range core.Engines() {
				engineCols = append(engineCols, info.Name)
			}
			report.Smoke(os.Stdout, rows, engineCols)
			for _, r := range rows {
				if r.Drift != "" {
					fmt.Fprintf(os.Stderr, "velobench: engine drift on %s: %s\n", r.Workload, r.Drift)
					drift = true
				}
			}
		}},
		{"-inject", "inject", func() bool { return *inject }, func() {
			report.Inject(os.Stdout, exper.Inject([]string{"elevator", "colt"}, seedList, *scale))
		}},
		{"-coverage", "coverage", func() bool { return *coverage }, func() { report.Coverage(os.Stdout, exper.Coverage(seedList, *scale)) }},
		{"-ablate", "ablate", func() bool { return *ablate }, func() { report.Ablate(os.Stdout, exper.Ablate(seedList[0], *scale*5)) }},
		{"-policies", "policies", func() bool { return *policyStudy }, func() {
			report.Policies(os.Stdout, exper.PolicyStudy([]string{"elevator", "colt"}, seedList, *scale))
		}},
	}
	f.Parse(os.Args[1:], func() []string {
		var modes []string
		for _, e := range exps {
			if e.on() || *all {
				modes = append(modes, e.mode)
			}
		}
		return modes
	})

	var err error
	if seedList, err = parseSeeds(*seeds); err != nil {
		fmt.Fprintln(os.Stderr, "velobench:", err)
		os.Exit(2)
	}
	// The experiments time freshly constructed engines, so they stay
	// uninstrumented; the registry observes velobench itself and backs
	// the optional live endpoint (whose main payload here is pprof).
	reg := obs.NewRegistry()
	experiments := reg.Counter("velobench_experiments_total")
	defer f.Start(reg)()
	// The experiment tracer: inert without -trace-out. Each experiment
	// becomes one span on the exported timeline.
	pt := f.StartTrace(false, "velobench")
	ran := false
	for _, e := range exps {
		if !e.on() && !*all {
			continue
		}
		ran = true
		experiments.Inc()
		id := pt.Buf.Start(e.span, pt.Root)
		e.run()
		fmt.Println()
		pt.Buf.End(id)
		if drift {
			os.Exit(1)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if err := pt.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "velobench:", err)
		os.Exit(2)
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
