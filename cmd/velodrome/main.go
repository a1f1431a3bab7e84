// Command velodrome runs one of the benchmark workloads under a chosen
// dynamic analysis back-end and reports its warnings:
//
//	velodrome -workload elevator                    Velodrome (default)
//	velodrome -workload jbb -backend atomizer       the Atomizer baseline
//	velodrome -workload tsp -backend eraser         Eraser race detection
//	velodrome -workload colt -adversarial           Atomizer-guided scheduling
//	velodrome -workload raytracer -dot out.dot      write error graphs
//	velodrome -list                                 list workloads
//
// Warnings from Velodrome are guaranteed violations of conflict-
// serializability in the observed trace; the blamed method, when
// assigned, is not self-serializable (Sections 3–4 of the paper).
//
// Exit status: 0 after a run, whatever it found; 2 on a usage error
// (a flag the chosen back-end would ignore among them) or when -record,
// -dot, -trace-out or standard output cannot be written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/rr"
	"repro/internal/span"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("workload", "", "benchmark to run (see -list)")
	backend := flag.String("backend", "velodrome", "analysis: velodrome, atomizer, eraser, empty")
	seed := flag.Int64("seed", 1, "scheduler seed")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	adversarial := flag.Bool("adversarial", false, "enable Atomizer-guided adversarial scheduling")
	record := flag.String("record", "", "write the event stream to this file (binary when it ends in .bin)")
	list := flag.Bool("list", false, "list available workloads")
	describe := flag.Bool("describe", false, "print the workload's method inventory and exit")
	stats := flag.Bool("stats", false, "print happens-before graph statistics")
	asJSON := flag.Bool("json", false, "emit velodrome warnings as JSON lines (with -stats: one obs snapshot object)")
	var f cli.Flags
	f.Register(flag.CommandLine, "velodrome", cli.Engine|cli.NoFilter|cli.Forensics|cli.Explain|cli.Dot|
		cli.NoMerge|cli.TraceOut|cli.Log|cli.Metrics|cli.Profile|cli.Heartbeat)
	f.Parse(os.Args[1:], func() []string { return []string{"-backend " + *backend} })

	if *list {
		for _, w := range bench.All() {
			fmt.Printf("%-11s %6d lines  %s\n", w.Name, w.JavaLines, w.Desc)
		}
		return
	}
	w := bench.ByName(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "velodrome: unknown workload %q (use -list)\n", *workload)
		os.Exit(2)
	}
	if *describe {
		fmt.Print(w.Describe())
		return
	}

	// One registry observes the whole stack: the checker's snapshot
	// (warnings, filter hits, the happens-before graph's nodes, edges and
	// GC) and stage clock, published at batch boundaries, and the
	// scheduler (steps, events, threads). It exists only when the run is
	// actually observed.
	var reg *obs.Registry
	if f.MetricsAddr != "" || f.Heartbeat > 0 || *stats {
		reg = obs.NewRegistry()
	}
	defer f.Start(reg)()

	// The pipeline tracer: inert unless the run is traced or observed
	// (the engine's stage clock is what the registry's stage families are
	// published from), so all paths run identical code. The scheduler
	// serializes backend calls, so one buffer serves the whole run.
	pt := f.StartTrace(reg != nil && *backend == "velodrome", "run", "workload", w.Name)
	sbuf := pt.Buf

	copts := core.Options{Engine: f.EngineInfo.Engine, NoMerge: f.NoMerge, NoFilter: f.NoFilter, Forensics: f.Forensics, Spans: sbuf}
	var be rr.Backend
	publish := func() {} // an observed velodrome run: the checker's snapshot to the registry
	switch *backend {
	case "velodrome":
		velo := rr.NewVelodrome(copts)
		be = velo
		if reg != nil {
			pub := core.NewPublisher(reg, sbuf)
			publish = func() { pub.Publish(velo.Checker.Snapshot()) }
			velo.Batch = publish
		}
	case "atomizer":
		be = rr.NewAtomizer()
	case "eraser":
		be = rr.NewEraser()
	case "empty":
		be = &rr.Empty{}
	default:
		fmt.Fprintf(os.Stderr, "velodrome: unknown backend %q\n", *backend)
		os.Exit(2)
	}

	opts := rr.Options{Seed: *seed, Backend: be, Record: *record != "", Metrics: reg}
	if *adversarial {
		adv := rr.NewAtomizerAdvisor()
		opts.Backend = rr.Multi{be, adv}
		opts.Advisor = adv
	}
	if f.Heartbeat > 0 {
		events := reg.Counter("rr_events_total")
		alive := reg.Gauge(core.MetricNodesAlive)
		warns := reg.Counter(core.MetricWarnings)
		rate := obs.NewRate(time.Now())
		stopHB := obs.StartHeartbeat(os.Stderr, f.Heartbeat, func() string {
			ev := events.Value()
			return fmt.Sprintf("heartbeat: %d events (%.0f/s), %d live nodes, %d warnings",
				ev, rate.Per(ev, time.Now()), alive.Value(), warns.Value())
		})
		defer stopHB()
	}
	checkStart := pt.Now()
	rep := rr.Run(opts, func(t *rr.Thread) {
		w.Body(t, bench.Params{Scale: *scale})
	})
	publish() // the end-of-run values
	// rr.Run has returned, so every backend Step (and its AddStage
	// bookkeeping) is sequenced before this point.
	chk := pt.Span("check", checkStart, span.StageFilter, span.StageGraph, span.StageForensics)
	sbuf.AttrInt(chk, "events", int64(rep.Events))
	if err := pt.Finish(); err != nil {
		fail(err)
	}
	if *record != "" {
		out, err := os.Create(*record)
		if err != nil {
			fail(err)
		}
		marshal := trace.Marshal
		if strings.HasSuffix(*record, ".bin") {
			marshal = trace.MarshalBinary
		}
		if err := marshal(out, rep.Trace); err == nil {
			err = out.Close()
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("recorded %d events to %s\n", len(rep.Trace), *record)
	}
	if !*asJSON {
		fmt.Printf("%s: %d threads, %d events, %d scheduling steps", w.Name, rep.Threads, rep.Events, rep.Steps)
		if rep.Delays > 0 {
			fmt.Printf(", %d adversarial delays", rep.Delays)
		}
		fmt.Println()
	}
	if rep.Deadlocked {
		fmt.Println("run DEADLOCKED")
	}
	if rep.Truncated {
		fmt.Println("run truncated by step limit")
	}

	switch b := be.(type) {
	case *rr.Velodrome:
		sums := core.Summarize(b.Warnings())
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			for _, s := range sums {
				if err := enc.Encode(s.First.JSON()); err != nil {
					fail(err)
				}
				if rep := s.First.Forensics(); f.Explain && rep != nil {
					if err := enc.Encode(rep); err != nil {
						fail(err)
					}
				}
			}
			if *stats {
				// -stats -json: the full obs snapshot as one JSON object
				// (counters, gauges, latency histograms) in place of the
				// human-readable graph table, for scraping tools.
				if err := reg.Snapshot().WriteJSON(os.Stdout); err != nil {
					fail(err)
				}
			}
		} else {
			fmt.Printf("velodrome: %d warnings across %d methods\n", len(b.Warnings()), len(sums))
			for _, s := range sums {
				fmt.Printf("[%d warnings, %d increasing]\n%s\n", s.Count, s.Increasing, s.First)
				if rep := s.First.Forensics(); f.Explain && rep != nil {
					rep.WriteText(os.Stdout)
				}
			}
			if *stats {
				snap := b.Checker.Snapshot()
				st := snap.Stats
				fmt.Printf("graph: allocated=%d maxAlive=%d collected=%d merged=%d recycled=%d\n",
					st.Allocated, st.MaxAlive, st.Collected, st.Merged, st.Recycled)
				fmt.Printf("filter: events=%d edgeMemoHits=%d\n",
					snap.Filtered, st.FilteredEdges)
			}
		}
		if f.Dot != "" {
			var firsts []*core.Warning
			for _, s := range sums {
				firsts = append(firsts, s.First)
			}
			if err := os.WriteFile(f.Dot, []byte(dot.RenderAll(firsts)), 0o644); err != nil {
				fail(err)
			}
			// Under -json stdout carries nothing but JSON.
			notice := os.Stdout
			if *asJSON {
				notice = os.Stderr
			}
			fmt.Fprintf(notice, "wrote %d error graphs to %s\n", len(firsts), f.Dot)
		}
	case *rr.Atomizer:
		fmt.Printf("atomizer: %d warnings\n", len(b.Warnings()))
		seen := map[string]bool{}
		for _, warn := range b.Warnings() {
			if m := string(warn.Label); !seen[m] {
				seen[m] = true
				fmt.Println(warn)
			}
		}
	case *rr.Eraser:
		fmt.Printf("eraser: %d potential races\n", len(b.Warnings()))
		for _, warn := range b.Warnings() {
			fmt.Println(warn)
		}
	case *rr.Empty:
		fmt.Printf("empty backend consumed %d events\n", b.Count)
	}
}

// fail reports an I/O error, which is exit status 2 like a usage error.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "velodrome:", err)
	os.Exit(2)
}
