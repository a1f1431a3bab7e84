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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/rr"
	"repro/internal/span"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("workload", "", "benchmark to run (see -list)")
	backend := flag.String("backend", "velodrome", "analysis: velodrome, atomizer, eraser, empty")
	engine := flag.String("engine", "optimized", "with -backend velodrome: the core engine, one of "+core.EngineNames())
	seed := flag.Int64("seed", 1, "scheduler seed")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	adversarial := flag.Bool("adversarial", false, "enable Atomizer-guided adversarial scheduling")
	dotOut := flag.String("dot", "", "write Velodrome error graphs (dot format) to this file")
	record := flag.String("record", "", "write the event stream to this file (binary when it ends in .bin)")
	list := flag.Bool("list", false, "list available workloads")
	describe := flag.Bool("describe", false, "print the workload's method inventory and exit")
	noMerge := flag.Bool("no-merge", false, "disable the merge optimization (Section 4.2)")
	noFilter := flag.Bool("nofilter", false, "disable the redundant-event fast path (Section 5 filtering)")
	stats := flag.Bool("stats", false, "print happens-before graph statistics")
	asJSON := flag.Bool("json", false, "emit velodrome warnings as JSON lines (with -stats: one obs snapshot object)")
	forensics := flag.Bool("forensics", false, "enable the event flight recorder (provenance reports on warnings)")
	explain := flag.Bool("explain", false, "print a provenance report per warning (implies -forensics)")
	traceOut := flag.String("trace-out", "", "with -backend velodrome: write a Chrome trace-event timeline of the run (check, filter, graph stages) to this file")
	var oflags obs.CLIFlags
	oflags.Register(flag.CommandLine, obs.FlagMetrics|obs.FlagProfile|obs.FlagHeartbeat)
	flag.Parse()
	logger, err := oflags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "velodrome:", err)
		os.Exit(2)
	}
	// What only the Velodrome back-end honours is refused under any
	// other, not dropped.
	if *backend != "velodrome" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "engine", "dot", "explain", "forensics", "no-merge", "nofilter", "trace-out":
				fmt.Fprintf(os.Stderr, "velodrome: -%s requires -backend velodrome\n", f.Name)
				os.Exit(2)
			}
		})
	}
	if *explain {
		*forensics = true
	}

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
	if oflags.MetricsAddr != "" || oflags.Heartbeat > 0 || *stats {
		reg = obs.NewRegistry()
	}
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

	// The pipeline tracer: inert (nil) unless the run is traced or
	// observed (the engine's stage clock is what the registry's stage
	// families are published from), so all paths run identical code. The
	// scheduler serializes backend calls, so one buffer serves the whole
	// run.
	var tracer *span.Tracer
	var sbuf *span.Buf
	var root span.SpanID
	if *traceOut != "" || reg != nil && *backend == "velodrome" {
		tracer = span.New()
		sbuf = tracer.Buffer("velodrome")
		root = sbuf.Start("run", 0)
		sbuf.AttrStr(root, "workload", w.Name)
	}

	einfo, ok := core.EngineByName(*engine)
	if !ok {
		fmt.Fprintf(os.Stderr, "velodrome: unknown engine %q (want %s)\n", *engine, core.EngineNames())
		os.Exit(2)
	}

	copts := core.Options{Engine: einfo.Engine, NoMerge: *noMerge, NoFilter: *noFilter, Forensics: *forensics, Spans: sbuf}
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
	if oflags.Heartbeat > 0 {
		events := reg.Counter("rr_events_total")
		alive := reg.Gauge(core.MetricNodesAlive)
		warns := reg.Counter(core.MetricWarnings)
		rate := obs.NewRate(time.Now())
		stopHB := obs.StartHeartbeat(os.Stderr, oflags.Heartbeat, func() string {
			ev := events.Value()
			return fmt.Sprintf("heartbeat: %d events (%.0f/s), %d live nodes, %d warnings",
				ev, rate.Per(ev, time.Now()), alive.Value(), warns.Value())
		})
		defer stopHB()
	}
	checkStart := tracer.Now()
	rep := rr.Run(opts, func(t *rr.Thread) {
		w.Body(t, bench.Params{Scale: *scale})
	})
	publish() // the end-of-run values
	if *traceOut != "" {
		// rr.Run has returned, so every backend Step (and its AddStage
		// bookkeeping) is sequenced before this point.
		now := tracer.Now()
		chk := sbuf.Emit("check", root, checkStart, now)
		sbuf.AttrInt(chk, "events", int64(rep.Events))
		sbuf.EmitStages(chk, checkStart, now, nil,
			span.StageFilter, span.StageGraph, span.StageForensics)
		sbuf.End(root)
		sbuf.Flush()
		if err := tracer.WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "velodrome: trace-out:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "velodrome: wrote pipeline trace to %s\n", *traceOut)
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "velodrome:", err)
			os.Exit(1)
		}
		marshal := trace.Marshal
		if strings.HasSuffix(*record, ".bin") {
			marshal = trace.MarshalBinary
		}
		if err := marshal(f, rep.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "velodrome:", err)
			os.Exit(1)
		}
		f.Close()
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
					fmt.Fprintln(os.Stderr, "velodrome:", err)
					os.Exit(1)
				}
				if rep := s.First.Forensics(); *explain && rep != nil {
					if err := enc.Encode(rep); err != nil {
						fmt.Fprintln(os.Stderr, "velodrome:", err)
						os.Exit(1)
					}
				}
			}
			if *stats {
				// -stats -json: the full obs snapshot as one JSON object
				// (counters, gauges, latency histograms) in place of the
				// human-readable graph table, for scraping tools.
				if err := reg.Snapshot().WriteJSON(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, "velodrome:", err)
					os.Exit(1)
				}
			}
		} else {
			fmt.Printf("velodrome: %d warnings across %d methods\n", len(b.Warnings()), len(sums))
			for _, s := range sums {
				fmt.Printf("[%d warnings, %d increasing]\n%s\n", s.Count, s.Increasing, s.First)
				if rep := s.First.Forensics(); *explain && rep != nil {
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
		if *dotOut != "" {
			var firsts []*core.Warning
			for _, s := range sums {
				firsts = append(firsts, s.First)
			}
			if err := os.WriteFile(*dotOut, []byte(dot.RenderAll(firsts)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "velodrome:", err)
				os.Exit(1)
			}
			// Under -json stdout carries nothing but JSON.
			notice := os.Stdout
			if *asJSON {
				notice = os.Stderr
			}
			fmt.Fprintf(notice, "wrote %d error graphs to %s\n", len(firsts), *dotOut)
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
