// Command tracecheck reads a trace — the one-operation-per-line text
// format or either binary format (counted, or the streaming one an
// instrumented program writes), auto-detected — and decides
// conflict-serializability with the online Velodrome analysis,
// cross-checking the offline oracle. The trace's comments — a text
// trace's "#" lines, a binary stream's trailer — are printed first, as
// "# ..." lines:
//
//	tracecheck trace.txt
//	tracecheck -          # read standard input
//	tracecheck -in -      # same, flag form (for pipelines)
//	tracecheck -dot out.dot trace.txt
//	tracecheck -server 127.0.0.1:7764 trace.bin   # check via velodromed
//
// The trace syntax:
//
//	begin.Set.add(1)     thread 1 enters atomic block "Set.add"
//	acq(1,m0)            thread 1 acquires lock m0
//	rd(1,x3)  wr(2,x3)   reads and writes of shared variables
//	rel(1,m0) end(1)     release; exit innermost block
//	fork(1,t2) join(1,t2)
//
// Exit status: 0 serializable, 1 non-serializable, 2 usage/input error.
// An empty input — zero operations, as produced by a crashed emitter or
// a misdirected pipe — is an input error (exit 2), never a vacuous
// "serializable".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/forensic"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/server"
	"repro/internal/span"
	"repro/internal/trace"
)

func main() {
	dotOut := flag.String("dot", "", "write error graphs (dot format) to this file")
	engine := flag.String("engine", "optimized", "analysis engine: "+core.EngineNames())
	quiet := flag.Bool("q", false, "suppress warning details")
	obsJSON := flag.Bool("obs-json", false, "emit the full obs snapshot (graph stats, warning and filter counts, stage times) as JSON on stderr")
	noFilter := flag.Bool("nofilter", false, "disable the redundant-event fast path (Section 5 filtering)")
	forensics := flag.Bool("forensics", false, "enable the event flight recorder (provenance reports on warnings)")
	explain := flag.Bool("explain", false, "print a provenance report per warning (implies -forensics; works in -server mode too)")
	inFlag := flag.String("in", "", "trace input: a file name or - for standard input (alternative to the positional argument)")
	serverAddr := flag.String("server", "", "check via a velodromed daemon at this address (host:port or unix:/path) instead of locally")
	apiKey := flag.String("key", "", "tenant API key sent in the session header (-server mode); absent = the daemon's default tenant")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event timeline of the local pipeline (decode, check, oracle, dot) to this file")
	var oflags obs.CLIFlags
	oflags.Register(flag.CommandLine, obs.FlagProfile)
	flag.Parse()
	if *explain {
		*forensics = true
	}
	einfo, ok := core.EngineByName(*engine)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracecheck: unknown engine %q (want %s)\n", *engine, core.EngineNames())
		os.Exit(2)
	}
	if _, err := oflags.Logger(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(2)
	}
	name := *inFlag
	switch {
	case name == "" && flag.NArg() == 1:
		name = flag.Arg(0)
	case name != "" && flag.NArg() == 0:
	default:
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-dot out.dot] [-in <file|->] [<trace file | ->]")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}

	if *serverAddr != "" {
		// A flag the daemon cannot honour is refused, not dropped: it
		// traces, filters and meters sessions itself and sends no graphs.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-trace-out", *traceOut != ""}, {"-nofilter", *noFilter}, {"-dot", *dotOut != ""},
			{"-obs-json", *obsJSON},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "tracecheck: %s only applies to local checking, not to -server (the daemon has its own -trace-dir and /metrics)\n", f.name)
				os.Exit(2)
			}
		}
		// Client mode: stream the raw bytes to the daemon and relay its
		// verdict, mapping statuses onto the local exit convention.
		hdr := trace.SessionHeader{Engine: einfo.Name, Forensics: *forensics, Key: *apiKey}
		v, err := server.CheckReader(*serverAddr, hdr, in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(2)
		}
		switch v.Status {
		case trace.StatusOK:
			printComments(v.Comments)
			if v.Serializable {
				fmt.Printf("serializable: %d operations (checked by %s at %s; session %s in %dms)\n",
					v.Ops, v.Engine, *serverAddr, v.Session, v.DurationMs)
			} else {
				fmt.Printf("NOT serializable: %d warnings over %d operations (checked by %s at %s; session %s in %dms)\n",
					len(v.Warnings), v.Ops, v.Engine, *serverAddr, v.Session, v.DurationMs)
				if !*quiet {
					for i, w := range v.Warnings {
						fmt.Println(w)
						if *explain && i < len(v.Reports) {
							if rep, err := forensic.ParseReport(v.Reports[i]); err == nil {
								rep.WriteText(os.Stdout)
							}
						}
					}
				}
			}
		default:
			fmt.Fprintf(os.Stderr, "tracecheck: server %s: %s: %s (%d ops consumed)\n", *serverAddr, v.Status, v.Error, v.Ops)
		}
		os.Exit(v.ExitCode())
	}

	// The pipeline tracer (nil unless -trace-out or -obs-json is set, and
	// then every span call below is an inert pointer test — the traced
	// and untraced paths run the same code). -obs-json reads the stage
	// accumulators of its buffer.
	var tracer *span.Tracer
	var sb *span.Buf
	var root span.SpanID
	if *traceOut != "" || *obsJSON {
		tracer = span.New()
		sb = tracer.Buffer("tracecheck")
		root = sb.Start("session", 0)
		sb.AttrStr(root, "input", name)
		sb.AttrStr(root, "engine", einfo.Name)
	}

	loadStart := tracer.Now()
	dec := trace.NewDecoder(in)
	tr, err := dec.ReadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(2)
	}
	if len(tr) == 0 {
		fmt.Fprintln(os.Stderr, "tracecheck: empty trace: input contained 0 operations (crashed producer or misdirected pipe?)")
		os.Exit(2)
	}
	if err := trace.Validate(tr); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck: ill-formed trace:", err)
		os.Exit(2)
	}
	printComments(dec.Comments)
	if sb != nil {
		sb.AddStage(span.StageDecode, tracer.Now()-loadStart)
		id := sb.Emit("decode", root, loadStart, tracer.Now())
		sb.AttrInt(id, "ops", int64(len(tr)))
	}

	opts := core.Options{Engine: einfo.Engine, NoFilter: *noFilter, Forensics: *forensics, Spans: sb}
	stopProf, _, err := oflags.StartProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(2)
	}
	// finish finalizes the profile, snapshot and pipeline trace before
	// exiting, since os.Exit skips deferred calls.
	var res *core.Result
	finish := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck: profile:", err)
		}
		if *obsJSON {
			reg := obs.NewRegistry()
			core.NewPublisher(reg, sb).Publish(res.Snapshot)
			reg.Snapshot().WriteJSON(os.Stderr)
		}
		if *traceOut != "" {
			sb.End(root)
			sb.Flush()
			if err := tracer.WriteChromeFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "tracecheck: trace-out:", err)
				if code == 0 {
					code = 2
				}
			} else {
				fmt.Fprintf(os.Stderr, "tracecheck: wrote pipeline trace to %s\n", *traceOut)
			}
		}
		os.Exit(code)
	}
	checkStart := tracer.Now()
	res = core.CheckTrace(tr, opts)
	if sb != nil {
		now := tracer.Now()
		chk := sb.Emit("check", root, checkStart, now)
		sb.AttrInt(chk, "ops", int64(len(tr)))
		sb.AttrInt(chk, "warnings", int64(len(res.Warnings)))
		sb.EmitStages(chk, checkStart, now, nil,
			span.StageFilter, span.StageGraph, span.StageForensics)
	}
	oracleStart := tracer.Now()
	offline, _ := serial.Check(tr)
	sb.Emit("oracle", root, oracleStart, tracer.Now())
	if offline != res.Serializable {
		fmt.Fprintln(os.Stderr, "tracecheck: INTERNAL DISAGREEMENT between online and offline checkers")
		finish(2)
	}
	if res.Serializable {
		fmt.Printf("serializable: %d operations, %d transactions allocated (max %d alive)\n",
			len(tr), res.Stats.Allocated, res.Stats.MaxAlive)
		finish(0)
	}
	fmt.Printf("NOT serializable: %d warnings over %d operations\n", len(res.Warnings), len(tr))
	if !*quiet {
		for _, w := range res.Warnings {
			fmt.Println(w)
			if rep := w.Forensics(); *explain && rep != nil {
				rep.WriteText(os.Stdout)
			}
		}
	}
	if *dotOut != "" {
		dotStart := tracer.Now()
		out := dot.RenderAll(res.Warnings)
		if *forensics {
			var b strings.Builder
			for i, w := range res.Warnings {
				if i > 0 {
					b.WriteByte('\n')
				}
				if rep := w.Forensics(); rep != nil {
					b.WriteString(dot.RenderReport(rep))
				} else {
					b.WriteString(dot.Render(w))
				}
			}
			out = b.String()
		}
		if err := os.WriteFile(*dotOut, []byte(out), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			finish(2)
		}
		sb.Emit("dot", root, dotStart, tracer.Now())
	}
	finish(1)
}

// printComments relays what the producer said out of band — for an
// instrumented program, its "velo events emitted=N pruned=M" trailer —
// in the form veloinstr -run prints it.
func printComments(comments []string) {
	for _, c := range comments {
		fmt.Println("#", c)
	}
}
