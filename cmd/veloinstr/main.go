// Command veloinstr is the static-instrumentation front-end: it
// type-checks a Go package, classifies its memory accesses with a
// conservative shared-access analysis (pruning provably thread-local
// and single-mutex-protected accesses, the paper's redundant-event
// optimizations), rewrites the source to emit Velodrome trace events,
// and optionally runs the result with the events piped straight into
// the online engines and the offline serial oracle:
//
//	veloinstr -analyze examples/instr/bankbug      classification + annotation errors
//	veloinstr -analyze -json <pkg>                 same, machine-readable
//	veloinstr -analyze -intra <pkg>                disable interprocedural lock inference
//	veloinstr examples/instr/bankbug               print instrumented source
//	veloinstr -o /tmp/out examples/instr/bankbug   write instrumented package
//	veloinstr -run examples/instr/bankbug          instrument, go run, check
//	veloinstr -run -server 127.0.0.1:7764 <pkg>    stream the trace to velodromed
//
// Atomicity specifications are //velo:atomic comments on function
// declarations. -analyze takes only -json and -intra; -trace,
// -trace-out, -obs-json and -server need -run, and -server excludes the
// other three. A flag the mode would ignore exits 2.
//
// Exit status: -analyze exits 0 when every annotation is well formed
// and 1 when one is not; -run exits 0 for a serializable trace and 1
// for a non-serializable one. Both exit 2 on a usage, infrastructure or
// type-checking error, and so does rewriting a package with an
// ill-formed annotation.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/server"
	"repro/internal/span"
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	analyze := flag.Bool("analyze", false, "print the access classification table and annotation errors, without rewriting")
	jsonOut := flag.Bool("json", false, "with -analyze: emit the report as JSON")
	intra := flag.Bool("intra", false, "disable interprocedural entry-lock inference (classify each function in isolation)")
	doRun := flag.Bool("run", false, "instrument, build and run the package, checking the emitted trace online")
	outDir := flag.String("o", "", "write the instrumented package to this directory")
	noprune := flag.Bool("noprune", false, "emit events even for accesses the analysis proved redundant")
	traceOut := flag.String("trace", "", "with -run: also save the collected trace to this file")
	var f cli.Flags
	f.Register(flag.CommandLine, "veloinstr", cli.TraceOut|cli.ObsJSON|cli.Server)
	f.Parse(os.Args[1:], func() []string {
		switch {
		case *analyze:
			return []string{"-analyze"}
		case *doRun && f.Server != "":
			return []string{"-run -server"}
		case *doRun:
			return []string{"-run"}
		}
		return []string{"rewriting"}
	})
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: veloinstr -analyze [-json] [-intra] <package dir>")
		fmt.Fprintln(os.Stderr, "       veloinstr [-run [-server addr | -trace file -trace-out file -obs-json]] [-intra] [-o dir] [-noprune] <package dir>")
		return 2
	}
	dir := flag.Arg(0)

	// The pipeline tracer: inert without -trace-out or -obs-json (which
	// reads its buffer's stage accumulators), so all paths run the same
	// code.
	pt := f.StartTrace(f.ObsJSON, "run", "package", dir)
	sb := pt.Buf

	instStart := pt.Now()
	pkg, err := instr.Load(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", err)
		return 2
	}
	dirs := instr.ScanDirectives(pkg)
	an := instr.AnalyzeOpts(pkg, dirs, instr.Options{Intraprocedural: *intra})
	rep := instr.NewReport(pkg, dirs, an)

	if *analyze {
		if *jsonOut {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "veloinstr:", err)
				return 2
			}
		} else {
			rep.WriteTable(os.Stdout)
		}
		if len(rep.Diags) > 0 {
			return 1
		}
		return 0
	}
	// An ill-formed annotation makes the atomicity spec unreliable, so
	// instrumentation refuses to proceed.
	for _, d := range dirs.Diags {
		fmt.Fprintln(os.Stderr, "veloinstr: annotation error:", d)
	}
	if len(dirs.Diags) > 0 {
		return 2
	}

	out, err := instr.Rewrite(pkg, dirs, an, instr.RewriteOptions{Prune: !*noprune})
	if err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", err)
		return 2
	}
	pt.Span("instrument", instStart)

	if !*doRun {
		if *outDir != "" {
			if err := writePackage(*outDir, out); err != nil {
				fmt.Fprintln(os.Stderr, "veloinstr:", err)
				return 2
			}
			fmt.Printf("wrote %d files to %s (%d access sites instrumented, %d pruned)\n",
				len(out.Files)+2, *outDir, out.SitesEmitted, out.SitesPruned)
			return 0
		}
		for _, name := range slices.Sorted(maps.Keys(out.Files)) {
			fmt.Printf("// ---- %s ----\n%s\n", name, out.Files[name])
		}
		fmt.Printf("// ---- %s ----\n%s\n", instr.ShimFileName, out.Shim)
		return 0
	}

	// -run: materialize, execute with the trace on an inherited pipe,
	// collect it, and run the production engines and the oracle over it.
	runDir := *outDir
	if runDir == "" {
		tmp, err := os.MkdirTemp("", "veloinstr-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "veloinstr:", err)
			return 2
		}
		defer os.RemoveAll(tmp)
		runDir = tmp
	}
	if err := writePackage(runDir, out); err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", err)
		return 2
	}

	if f.Server != "" {
		return runViaServer(runDir, f.Server, filepath.Base(dir), out)
	}

	reg := obs.NewRegistry()
	rep.Record(reg)
	reg.Gauge("instr_sites_emitted").Set(int64(out.SitesEmitted))
	reg.Gauge("instr_sites_pruned").Set(int64(out.SitesPruned))

	execStart := pt.Now()
	tr, runtimeComments, err := execAndCollect(runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", err)
		return 2
	}
	sb.AttrInt(pt.Span("execute", execStart), "ops", int64(len(tr)))
	if len(tr) == 0 {
		fmt.Fprintln(os.Stderr, "veloinstr: empty trace: the instrumented program emitted 0 operations (crashed before its first event?)")
		return 2
	}
	// Cross-check the shim's emission counter against what actually
	// arrived: a producer that died after the pipe broke — or a pipe
	// that dropped a suffix — must not be checked as a clean prefix.
	if err := checkTrailer(runtimeComments, int64(len(tr))); err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", err)
		return 2
	}
	if err := trace.Validate(tr); err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr: instrumentation produced an ill-formed trace:", err)
		return 2
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "veloinstr:", err)
			return 2
		}
		if err := trace.Marshal(f, tr); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "veloinstr:", err)
			return 2
		}
	}

	// Every production engine walks the same trace (the Figure 2
	// reference engine is the test suites' business); the offline oracle
	// arbitrates. The optimized run carries the span hook (it is the
	// engine whose pipeline the timeline and the snapshot are for).
	results := make(map[string]*core.Result, len(core.Engines()))
	for _, info := range core.Engines() {
		if info.Reference {
			continue
		}
		eopts := core.Options{Engine: info.Engine}
		var stages []span.Stage
		if info.Engine == core.Optimized {
			eopts.Spans = sb
			stages = []span.Stage{span.StageFilter, span.StageGraph}
		}
		engStart := pt.Now()
		results[info.Name] = core.CheckTrace(tr, eopts)
		sb.AttrInt(pt.Span("check:"+info.Name, engStart, stages...), "ops", int64(len(tr)))
	}
	optimized := results["optimized"]
	oracleStart := pt.Now()
	offline, _ := serial.Check(tr)
	pt.Span("oracle", oracleStart)
	if err := pt.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", err)
		return 2
	}

	reg.Counter("instr_trace_ops").Add(int64(len(tr)))
	if f.ObsJSON {
		core.NewPublisher(reg, sb).Publish(optimized.Snapshot)
		defer reg.Snapshot().WriteJSON(os.Stderr)
	}

	for _, c := range runtimeComments {
		fmt.Println("#", c)
	}
	fmt.Printf("trace: %d operations (%d access sites instrumented, %d pruned)\n",
		len(tr), out.SitesEmitted, out.SitesPruned)

	for name, res := range results {
		if res.Serializable != offline {
			fmt.Fprintf(os.Stderr,
				"veloinstr: INTERNAL DISAGREEMENT: %s=%v oracle=%v\n",
				name, res.Serializable, offline)
			return 2
		}
	}
	if optimized.Serializable {
		fmt.Printf("serializable: %s engines agree, serial oracle confirms\n", core.ProductionEngineNames())
		return 0
	}
	fmt.Printf("NOT serializable: %d warnings (optimized); %s engines and serial oracle agree\n",
		len(optimized.Warnings), core.ProductionEngineNames())
	for _, w := range optimized.Warnings {
		fmt.Println(w)
	}
	return 1
}

// checkTrailer cross-checks the shim's end-of-run summary comment
// ("velo events emitted=N pruned=M") against the operations actually
// received. A missing trailer means the producer never reached
// _velo_done; a count mismatch means events were lost in flight. Either
// way the received trace is a truncated prefix and checking it would be
// a silent false negative.
func checkTrailer(comments []string, received int64) error {
	for i := len(comments) - 1; i >= 0; i-- {
		var emitted, pruned int64
		if _, err := fmt.Sscanf(comments[i], "velo events emitted=%d pruned=%d", &emitted, &pruned); err == nil {
			if emitted != received {
				return fmt.Errorf("partial trace: producer emitted %d events but %d arrived", emitted, received)
			}
			return nil
		}
	}
	return fmt.Errorf("partial trace: runtime summary trailer missing (producer died before flushing?)")
}

// runViaServer executes the instrumented package with its trace pipe
// streamed straight to a velodromed daemon, and relays the daemon's
// verdict. The child's bytes flow through untouched — the daemon does
// the decoding — so a multi-gigabyte run never materializes here.
func runViaServer(dir, addr, name string, out *instr.Output) int {
	cmd, pr, err := startProgram(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", err)
		return 2
	}

	hdr := trace.SessionHeader{Engine: "optimized", Name: sanitizeName(name)}
	v, cerr := server.CheckReader(addr, hdr, pr)
	io.Copy(io.Discard, pr) // drain if the daemon bailed early, so the child can exit
	pr.Close()
	werr := cmd.Wait()

	// The child's own failure wins: a broken-pipe diagnostic from the
	// shim (exit 3) means the daemon saw a truncated stream, whatever
	// its verdict says.
	if werr != nil {
		fmt.Fprintf(os.Stderr, "veloinstr: go run: %v (partial trace streamed to %s)\n", werr, addr)
		return 2
	}
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", cerr)
		return 2
	}
	if v.Status != trace.StatusOK {
		fmt.Fprintf(os.Stderr, "veloinstr: server %s: %s: %s (%d ops consumed)\n", addr, v.Status, v.Error, v.Ops)
		return 2
	}
	if err := checkTrailer(v.Comments, v.Ops); err != nil {
		fmt.Fprintln(os.Stderr, "veloinstr:", err)
		return 2
	}
	for _, c := range v.Comments {
		fmt.Println("#", c)
	}
	fmt.Printf("trace: %d operations (%d access sites instrumented, %d pruned), checked by %s at %s (session %s in %dms)\n",
		v.Ops, out.SitesEmitted, out.SitesPruned, v.Engine, addr, v.Session, v.DurationMs)
	if v.Serializable {
		fmt.Println("serializable")
		return 0
	}
	fmt.Printf("NOT serializable: %d warnings\n", len(v.Warnings))
	for _, w := range v.Warnings {
		fmt.Println(w)
	}
	return 1
}

// sanitizeName makes a package-dir basename safe for the session
// header's space- and '='-free name field.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '_' || r == '.':
			return r
		}
		return '-'
	}, s)
}

// writePackage materializes the instrumented sources, the runtime shim
// and a module file so the output builds standalone with `go run .`.
func writePackage(dir string, out *instr.Output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, src := range out.Files {
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, instr.ShimFileName), out.Shim, 0o644); err != nil {
		return err
	}
	gomod := "module veloinstrumented\n\ngo 1.21\n"
	return os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644)
}

// startProgram runs `go run .` in dir with the trace on an inherited
// pipe (fd 3, selected via VELO_TRACE) and returns the pipe's read end.
func startProgram(dir string) (*exec.Cmd, *os.File, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{pw} // becomes fd 3 in the child
	cmd.Env = append(os.Environ(), "VELO_TRACE=fd:3")
	err = cmd.Start()
	pw.Close() // the child holds the write end now
	if err != nil {
		pr.Close()
		return nil, nil, err
	}
	return cmd, pr, nil
}

// execAndCollect runs the program in dir, decoding its events as they
// arrive. It returns the complete trace and any runtime summary
// comments (the "velo events emitted=..." trailer).
func execAndCollect(dir string) (trace.Trace, []string, error) {
	cmd, pr, err := startProgram(dir)
	if err != nil {
		return nil, nil, err
	}

	dec := trace.NewDecoder(pr)
	tr, decErr := dec.ReadAll()
	io.Copy(io.Discard, pr) // drain after a decode error so the child can exit
	pr.Close()
	if err := cmd.Wait(); err != nil {
		return nil, nil, fmt.Errorf("go run: %w", err)
	}
	if decErr != nil {
		return nil, nil, fmt.Errorf("decoding trace: %w", decErr)
	}
	return tr, dec.Comments, nil
}
