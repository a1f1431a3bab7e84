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

	"repro/internal/cli"
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
	quiet := flag.Bool("q", false, "suppress warning details")
	inFlag := flag.String("in", "", "trace input: a file name or - for standard input (alternative to the positional argument)")
	var f cli.Flags
	f.Register(flag.CommandLine, "tracecheck", cli.Engine|cli.NoFilter|cli.Forensics|cli.Explain|cli.Dot|
		cli.TraceOut|cli.ObsJSON|cli.Server|cli.Key|cli.Profile)
	f.Parse(os.Args[1:], func() []string {
		mode := "local checking"
		if f.Server != "" {
			mode = "-server"
		}
		if *quiet {
			mode += " with -q"
		}
		return []string{mode}
	})
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
		file, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(2)
		}
		defer file.Close()
		in = file
	}

	if f.Server != "" {
		// Client mode: stream the raw bytes to the daemon and relay its
		// verdict, mapping statuses onto the local exit convention.
		hdr := trace.SessionHeader{Engine: f.EngineInfo.Name, Forensics: f.Forensics, Key: f.Key}
		v, err := server.CheckReader(f.Server, hdr, in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(2)
		}
		switch v.Status {
		case trace.StatusOK:
			printComments(v.Comments)
			if v.Serializable {
				fmt.Printf("serializable: %d operations (checked by %s at %s; session %s in %dms)\n",
					v.Ops, v.Engine, f.Server, v.Session, v.DurationMs)
			} else {
				fmt.Printf("NOT serializable: %d warnings over %d operations (checked by %s at %s; session %s in %dms)\n",
					len(v.Warnings), v.Ops, v.Engine, f.Server, v.Session, v.DurationMs)
				if !*quiet {
					for i, w := range v.Warnings {
						fmt.Println(w)
						if f.Explain && i < len(v.Reports) {
							if rep, err := forensic.ParseReport(v.Reports[i]); err == nil {
								rep.WriteText(os.Stdout)
							}
						}
					}
				}
			}
		default:
			fmt.Fprintf(os.Stderr, "tracecheck: server %s: %s: %s (%d ops consumed)\n", f.Server, v.Status, v.Error, v.Ops)
		}
		os.Exit(v.ExitCode())
	}

	// The pipeline tracer (inert unless -trace-out or -obs-json is set,
	// and then every span call below is a pointer test — the traced and
	// untraced paths run the same code). -obs-json reads the stage
	// accumulators of its buffer.
	pt := f.StartTrace(f.ObsJSON, "session", "input", name, "engine", f.EngineInfo.Name)
	sb := pt.Buf

	loadStart := pt.Now()
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
	sb.AddStage(span.StageDecode, pt.Now()-loadStart)
	sb.AttrInt(pt.Span("decode", loadStart), "ops", int64(len(tr)))

	opts := core.Options{Engine: f.EngineInfo.Engine, NoFilter: f.NoFilter, Forensics: f.Forensics, Spans: sb}
	stopProf := f.Start(nil)
	// finish finalizes the profile, snapshot and pipeline trace before
	// exiting, since os.Exit skips deferred calls.
	var res *core.Result
	finish := func(code int) {
		stopProf()
		if f.ObsJSON {
			reg := obs.NewRegistry()
			core.NewPublisher(reg, sb).Publish(res.Snapshot)
			reg.Snapshot().WriteJSON(os.Stderr)
		}
		if err := pt.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			if code == 0 {
				code = 2
			}
		}
		os.Exit(code)
	}
	checkStart := pt.Now()
	res = core.CheckTrace(tr, opts)
	chk := pt.Span("check", checkStart, span.StageFilter, span.StageGraph, span.StageForensics)
	sb.AttrInt(chk, "ops", int64(len(tr)))
	sb.AttrInt(chk, "warnings", int64(len(res.Warnings)))
	oracleStart := pt.Now()
	offline, _ := serial.Check(tr)
	pt.Span("oracle", oracleStart)
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
			if rep := w.Forensics(); f.Explain && rep != nil {
				rep.WriteText(os.Stdout)
			}
		}
	}
	if f.Dot != "" {
		dotStart := pt.Now()
		if err := os.WriteFile(f.Dot, []byte(dot.RenderAll(res.Warnings)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			finish(2)
		}
		pt.Span("dot", dotStart)
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
