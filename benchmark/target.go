package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/trace"
)

// target-hotloop: the paper's Table 1 measurement on a real Go program.
// The benchmark's own loop-heavy program (targets/hotloop) is instrumented
// by instr.Load → Analyze → Rewrite and built in set-up; a run starts it
// with a fixed wall budget and checks the trace it streams over a pipe
// with core.CheckStream, as `veloinstr -run` does. Because the budget is
// fixed, a cheaper shim shows as more events per second, not as a shorter
// run.

//go:embed targets/hotloop/main.go
var hotloopSource []byte

const (
	// The wall budget handed to one target run. Short, because the figure
	// kept is the fastest run and only a short one fits wholly inside a
	// quiet moment of the host (see tally): with 100 ms, one set of ten
	// seeds in three spread by 14% where 30 ms spreads by 2%. Still ten
	// times what a process takes to start, which is part of a run's wall
	// time, and three of the scheduler's 10 ms slices.
	targetBudgetMs = 30
	targetRounds   = 5 // plain / discard / checked / unpruned rounds in the traced run
)

type targetWorkload struct {
	dir       string
	src       string // directory holding the uninstrumented source
	plain     string // uninstrumented binary
	pruned    string // instrumented, static pruning on (the default)
	rewriteMs float64
	buildMs   float64
}

func (w *targetWorkload) setUp(c *config) error {
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.workDir, "target-")
	if err != nil {
		return err
	}
	w.dir, w.src = dir, filepath.Join(dir, "src")
	if err := writeModule(w.src, map[string][]byte{"main.go": hotloopSource}); err != nil {
		return err
	}
	w.plain = filepath.Join(dir, "hotloop")
	if err := goBuild(w.src, w.plain, "."); err != nil {
		return err
	}
	w.pruned = filepath.Join(dir, "hotloop-pruned")
	if w.rewriteMs, w.buildMs, err = w.instrument(instr.RewriteOptions{Prune: true}, w.pruned); err != nil {
		return err
	}
	// Reference: the program is violation-free by construction; a short
	// run, checked against the reference engines, confirms this build is.
	run, err := runTarget(w.pruned, c.budgetMs()/10+1, sinkCheck, true)
	if err != nil {
		return err
	}
	if run.problem != "" {
		return fmt.Errorf("reference run of the instrumented target: %s", run.problem)
	}
	ref, err := referenceFor(run.captured)
	if err != nil {
		return err
	}
	if !ref.serializable || ref.warnings != 0 {
		return fmt.Errorf("the instrumented target is not violation-free: %+v", ref)
	}
	return nil
}

func (w *targetWorkload) tearDown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (c *config) budgetMs() int {
	if c.smoke {
		return targetBudgetMs / 2
	}
	return targetBudgetMs
}

// instrument rewrites the target with opt, writes it as a module of its
// own and builds it into out. It returns the rewrite and build times.
func (w *targetWorkload) instrument(opt instr.RewriteOptions, out string) (rewriteMs, buildMs float64, err error) {
	t0 := time.Now()
	pkg, err := instr.Load(w.src)
	if err != nil {
		return 0, 0, fmt.Errorf("loading the target: %w", err)
	}
	dirs := instr.ScanDirectives(pkg)
	rewritten, err := instr.Rewrite(pkg, dirs, instr.Analyze(pkg, dirs), opt)
	if err != nil {
		return 0, 0, fmt.Errorf("rewriting the target: %w", err)
	}
	rewriteMs = float64(time.Since(t0).Microseconds()) / 1e3
	files := map[string][]byte{instr.ShimFileName: rewritten.Shim}
	for name, src := range rewritten.Files {
		files[name] = src
	}
	modDir := out + ".src"
	if err := writeModule(modDir, files); err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	if err := goBuild(modDir, out, "."); err != nil {
		return 0, 0, err
	}
	return rewriteMs, float64(time.Since(t0).Microseconds()) / 1e3, nil
}

// writeModule writes files and a go.mod into dir, so it builds standalone.
func writeModule(dir string, files map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module hotloop\n\ngo 1.21\n"), 0o644)
}

// Where a target run's trace goes.
const (
	sinkNone    = iota // uninstrumented binary: there is no trace
	sinkDiscard        // VELO_TRACE=/dev/null, the paper's Empty tool
	sinkCheck          // a pipe into core.CheckStream in this process
)

type targetRun struct {
	iterations int64
	wall       time.Duration // process start to exit, the verdict in hand
	cpu        time.Duration // the target's user+sys
	ops        int           // operations checked (sinkCheck)
	emitted    int64         // the shim's own count, from its trailer
	pruned     int64
	traceBytes int64
	captured   trace.Trace // the decoded trace, when asked for
	problem    string      // "" or how the run's output was wrong
}

// runTarget runs one target binary for budgetMs. A run that could not be
// started is an error; a run whose output is wrong sets problem.
func runTarget(bin string, budgetMs int, sink int, capture bool) (*targetRun, error) {
	cmd := exec.Command(bin, fmt.Sprint(budgetMs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// One P for the target, instrumented or not: its two workers then take
	// turns instead of fighting over the shim's one mutex, which makes
	// identical runs differ by a third and drowns any change to the shim.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var pr, pw *os.File
	switch sink {
	case sinkDiscard:
		cmd.Env = append(cmd.Env, "VELO_TRACE="+os.DevNull)
	case sinkCheck:
		var err error
		if pr, pw, err = os.Pipe(); err != nil {
			return nil, err
		}
		defer pr.Close()
		cmd.ExtraFiles = []*os.File{pw} // fd 3 in the child
		cmd.Env = append(cmd.Env, "VELO_TRACE=fd:3")
	}
	run := &targetRun{}
	start := time.Now()
	err := cmd.Start()
	if pw != nil {
		pw.Close() // the child holds the write end now
	}
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	var res *core.Result
	var checkErr error
	var dec *trace.Decoder
	if sink == sinkCheck {
		counted := &countingReader{r: pr}
		var raw bytes.Buffer
		var src io.Reader = counted
		if capture {
			src = io.TeeReader(counted, &raw)
		}
		dec = trace.NewDecoder(src)
		res, run.ops, checkErr = core.CheckStream(dec, core.Options{})
		io.Copy(io.Discard, pr) // after a decode error, let the child finish
		run.traceBytes = counted.n
		if capture && checkErr == nil {
			run.captured, checkErr = trace.ReadAuto(&raw)
		}
	}
	waitErr := cmd.Wait()
	run.wall = time.Since(start)
	if cmd.ProcessState != nil {
		run.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	}
	switch {
	case waitErr != nil:
		run.problem = fmt.Sprintf("target exited: %v: %s", waitErr, bytes.TrimSpace(stderr.Bytes()))
	case checkErr != nil:
		run.problem = "checking the streamed trace: " + checkErr.Error()
	}
	if _, err := fmt.Sscanf(stdout.String(), "iterations=%d", &run.iterations); err != nil && run.problem == "" {
		run.problem = fmt.Sprintf("no iteration count in the target's output %q", stdout.String())
	}
	if sink != sinkCheck || run.problem != "" {
		return run, nil
	}
	for _, cm := range dec.Comments {
		fmt.Sscanf(cm, "velo events emitted=%d pruned=%d", &run.emitted, &run.pruned)
	}
	switch {
	case run.emitted != int64(run.ops):
		run.problem = fmt.Sprintf("shim trailer says %d events emitted, %d arrived", run.emitted, run.ops)
	case !res.Serializable || len(res.Warnings) != 0:
		run.problem = fmt.Sprintf("violation-free target reported %d warnings", len(res.Warnings))
	}
	return run, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (w *targetWorkload) window(c *config, d time.Duration, tr *tracer) (*tally, error) {
	t := newTally(1, 1)
	ln := tr.lane("client0")
	defer ln.done()
	cpu0, start := selfCPU(), time.Now()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		var run *targetRun
		var err error
		ln.span("target run", func() { run, err = runTarget(w.pruned, c.budgetMs(), sinkCheck, false) })
		if err != nil {
			return nil, err
		}
		t.observe(0, 0, int64(run.ops), run.wall, run.problem)
		t.cpu += run.cpu
	}
	t.wall = time.Since(start)
	t.cpu += selfCPU() - cpu0
	return t, nil
}

func (w *targetWorkload) layers(c *config, tr *tracer, e2e *tally) (map[string]float64, error) {
	ln := tr.lane("layers")
	defer ln.done()
	unpruned := filepath.Join(w.dir, "hotloop-unpruned")
	if _, _, err := w.instrument(instr.RewriteOptions{Prune: false}, unpruned); err != nil {
		return nil, err
	}

	// Rounds of the four configurations, interleaved so drift on the host
	// falls on all of them alike. The figure kept is each configuration's
	// lowest nanoseconds per iteration inside the program's own budget
	// (see tally for why the lowest), so process start-up is in neither
	// side of a ratio.
	rounds := targetRounds
	if c.smoke {
		rounds = 1
	}
	// Ten budgets long: the target counts iterations in steps of 16 per
	// worker, too coarse for a ratio over one 30 ms budget.
	budget := 10 * c.budgetMs()
	configs := []struct {
		name string
		bin  string
		sink int
	}{
		{"plain", w.plain, sinkNone},
		{"discard", w.pruned, sinkDiscard},
		{"checked", w.pruned, sinkCheck},
		{"unpruned", unpruned, sinkCheck},
	}
	nsPerIter := map[string]float64{}
	var last *targetRun // the last round's checked run, with its trace
	for r := 0; r < rounds; r++ {
		for _, cf := range configs {
			var run *targetRun
			var err error
			ln.span("target run ("+cf.name+")", func() {
				run, err = runTarget(cf.bin, budget, cf.sink, cf.name == "checked" && r == rounds-1)
			})
			if err != nil {
				return nil, err
			}
			if run.problem != "" || run.iterations == 0 {
				return nil, fmt.Errorf("%s run: %s (%d iterations)", cf.name, run.problem, run.iterations)
			}
			if ns := float64(budget) * 1e6 / float64(run.iterations); nsPerIter[cf.name] == 0 || ns < nsPerIter[cf.name] {
				nsPerIter[cf.name] = ns
			}
			if run.captured != nil {
				last = run
			}
		}
	}
	plain := nsPerIter["plain"]
	in, err := newInput("hotloop", last.captured)
	if err != nil {
		return nil, err
	}
	m, err := checkerLayers(c, []*input{in}, ln)
	if err != nil {
		return nil, err
	}
	m["instr.slowdown_x"] = nsPerIter["checked"] / plain
	m["instr.discard_slowdown_x"] = nsPerIter["discard"] / plain
	m["instr.noprune_slowdown_x"] = nsPerIter["unpruned"] / plain
	eventsPerIter := float64(last.ops) / float64(last.iterations)
	m["instr.shim_ns_per_event"] = (nsPerIter["discard"] - plain) / eventsPerIter
	m["instr.shim_bytes_per_event"] = float64(last.traceBytes) / float64(last.ops)
	m["instr.pruned_share"] = float64(last.pruned) / float64(last.emitted+last.pruned)
	consumerNs := (m["trace.decode_text_ns_per_event"] + m["core.step_ns_per_event"]) * float64(last.ops)
	m["instr.consumer_busy_share"] = consumerNs / float64(last.wall.Nanoseconds())
	m["instr.rewrite_ms"] = w.rewriteMs
	m["instr.build_ms"] = w.buildMs
	// The ledger per event: the program's own work, and the consumer's
	// decode and step. What is left is the shim.
	explained := plain/eventsPerIter + m["trace.decode_text_ns_per_event"] + m["core.step_ns_per_event"]
	m["ledger.residual_share"] = 1 - explained/e2e.nsPerEvent()
	return m, nil
}
