package instr

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// instrumentDir rewrites the package in dir.
func instrumentDir(t *testing.T, dir string, opt RewriteOptions) *Output {
	t.Helper()
	p, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	dirs := ScanDirectives(p)
	out, err := Rewrite(p, dirs, Analyze(p, dirs), opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runInstrumented builds the instrumented package (plus any extra files)
// as a module of its own, runs it with the trace on a file, and returns
// the raw trace and the program's combined output.
func runInstrumented(t *testing.T, out *Output, extra map[string]string) (raw []byte, output string) {
	t.Helper()
	dir := t.TempDir()
	materialize(t, dir, out)
	for name, src := range extra {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tracePath := filepath.Join(dir, "velo.trace")
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "VELO_TRACE="+tracePath)
	combined, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("instrumented program failed: %v\n%s", err, combined)
	}
	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	return raw, string(combined)
}

// decodeChecked decodes a shim trace and checks what every consumer
// checks first: the trailer's count equals the operations received, and
// the trace is well formed.
func decodeChecked(t *testing.T, raw []byte) trace.Trace {
	t.Helper()
	tr, _ := decodeCheckedComments(t, raw)
	return tr
}

// decodeCheckedComments is decodeChecked, also returning the stream's
// trailer comments.
func decodeCheckedComments(t *testing.T, raw []byte) (trace.Trace, []string) {
	t.Helper()
	dec := trace.NewDecoder(bytes.NewReader(raw))
	tr, err := dec.ReadAll()
	if err != nil {
		t.Fatalf("decoding the trace: %v", err)
	}
	emitted := int64(-1)
	for _, c := range dec.Comments {
		var pruned int64
		fmt.Sscanf(c, "velo events emitted=%d pruned=%d", &emitted, &pruned)
	}
	if emitted != int64(len(tr)) {
		t.Fatalf("shim trailer says %d events emitted, %d decoded", emitted, len(tr))
	}
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("ill-formed trace: %v\n%s", err, raw)
	}
	return tr, dec.Comments
}

// TestTidAgreement runs the routes fixture, in which goroutine i touches
// only cell[i], and checks that the tid every event carries is the tid of
// the goroutine that emitted it: variables and threads pair off one to
// one, and a forked thread acts only between its fork and its join.
func TestTidAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs an instrumented program")
	}
	const goroutines = 6
	for _, prune := range []bool{true, false} {
		out := instrumentDir(t, filepath.Join("testdata", "routes"), RewriteOptions{Prune: prune})
		raw, _ := runInstrumented(t, out, nil)
		tr := decodeChecked(t, raw)

		varOf := map[trace.Tid]map[trace.Var]bool{}
		tidOf := map[trace.Var]map[trace.Tid]bool{}
		first, last := map[trace.Tid]int{}, map[trace.Tid]int{}
		forkAt, joinAt := map[trace.Tid]int{}, map[trace.Tid]int{}
		for i, op := range tr {
			if _, ok := first[op.Thread]; !ok {
				first[op.Thread] = i
			}
			last[op.Thread] = i
			switch op.Kind {
			case trace.Read, trace.Write:
				if varOf[op.Thread] == nil {
					varOf[op.Thread] = map[trace.Var]bool{}
				}
				if tidOf[op.Var()] == nil {
					tidOf[op.Var()] = map[trace.Tid]bool{}
				}
				varOf[op.Thread][op.Var()] = true
				tidOf[op.Var()][op.Thread] = true
			case trace.Fork:
				forkAt[op.Other()] = i
			case trace.Join:
				joinAt[op.Other()] = i
			}
		}
		if len(tidOf) != goroutines || len(varOf) != goroutines {
			t.Errorf("prune=%v: %d cells touched by %d threads, want %d of each", prune, len(tidOf), len(varOf), goroutines)
		}
		for x, tids := range tidOf {
			if len(tids) != 1 {
				t.Errorf("prune=%v: x%d is touched by threads %v: some event carries another goroutine's tid", prune, x, tids)
			}
		}
		for tid, vars := range varOf {
			if len(vars) != 1 {
				t.Errorf("prune=%v: thread %d touches variables %v, want its own cell only", prune, tid, vars)
			}
		}
		// Four goroutines are forked by instrumented go statements; the
		// timer callback's is not, but it is joined like the rest.
		if len(forkAt) != goroutines-2 || len(joinAt) != goroutines-1 {
			t.Errorf("prune=%v: %d forks and %d joins, want %d and %d", prune, len(forkAt), len(joinAt), goroutines-2, goroutines-1)
		}
		for tid, at := range forkAt {
			if first[tid] < at {
				t.Errorf("prune=%v: thread %d acts at op %d, before its fork at %d", prune, tid, first[tid], at)
			}
		}
		for tid, at := range joinAt {
			if last[tid] > at {
				t.Errorf("prune=%v: thread %d acts at op %d, after its join at %d", prune, tid, last[tid], at)
			}
		}
		if t.Failed() {
			t.Logf("trace:\n%s", tr)
		}
	}
}

// TestSingleGoroutineTraceGolden pins the trace of a one-goroutine
// program, operation for operation and trailer included. The goldens
// are text, from the shim that looked the goroutine id up on every event
// and wrote text itself, so they are not regenerated by -update: neither
// where the tid comes from nor how the shim encodes may show in the
// trace's content.
func TestSingleGoroutineTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs an instrumented program")
	}
	for _, c := range []struct {
		golden string
		prune  bool
	}{{"single.trace.golden", true}, {"single.noprune.trace.golden", false}} {
		out := instrumentDir(t, filepath.Join("testdata", "single"), RewriteOptions{Prune: c.prune})
		raw, _ := runInstrumented(t, out, nil)
		if !bytes.HasPrefix(raw, []byte("VTS1")) {
			t.Errorf("the shim's trace does not open with the streaming binary magic: %q", raw[:min(len(raw), 8)])
		}
		// The stream's content in the goldens' syntax: its operations as
		// text lines, its trailer as the closing comment line.
		tr, comments := decodeCheckedComments(t, raw)
		var got bytes.Buffer
		if err := trace.Marshal(&got, tr); err != nil {
			t.Fatal(err)
		}
		for _, cm := range comments {
			fmt.Fprintf(&got, "# %s\n", cm)
		}
		// The shim's encoder is a copy the generated file has to carry;
		// internal/trace's is the definition. They must agree to the byte.
		var canonical bytes.Buffer
		if err := trace.MarshalStream(&canonical, tr, strings.Join(comments, "")); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, canonical.Bytes()) {
			t.Errorf("the shim's bytes differ from trace.MarshalStream of the same trace:\n%x\n%x", raw, canonical.Bytes())
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("trace differs from testdata/%s\n--- got ---\n%s", c.golden, got.Bytes())
		}
	}
}

// TestEventsBeforeMain instruments a program whose package-level
// initializer takes a mutex and whose init() forks and joins. When main
// opened the sink, both panicked on the shim's nil maps before main ran.
func TestEventsBeforeMain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs an instrumented program")
	}
	out := instrumentDir(t, filepath.Join("testdata", "preinit"), RewriteOptions{Prune: true})
	raw, output := runInstrumented(t, out, nil)
	if !strings.Contains(output, "seed 42 seeded 2") {
		t.Errorf("program output %q", output)
	}
	tr := decodeChecked(t, raw)
	var acquires, forks, joins int
	for _, op := range tr {
		switch op.Kind {
		case trace.Acquire:
			acquires++
		case trace.Fork:
			forks++
		case trace.Join:
			joins++
		}
	}
	if acquires != 3 || forks != 1 || joins != 1 {
		t.Errorf("%d acquires, %d forks, %d joins; want 3, 1, 1\n%s", acquires, forks, joins, tr)
	}
}

// tidProbe is added to the spawn fixture's generated module: it reports
// how many goroutines the shim still has registered, once the exiting
// ones have had a moment to deregister.
const tidProbe = `package main

import "time"

func init() {
	liveTids = func() int {
		n := 0
		for i := 0; i < 2000; i++ {
			_velo.mu.Lock()
			n = len(_velo.tids)
			_velo.mu.Unlock()
			if n <= 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return n
	}
}
`

// TestTidTableBounded starts and joins ten thousand goroutines: the
// shim's goroutine-id table must shrink back to the main goroutine's
// entry. It used to keep one entry per goroutine ever started.
func TestTidTableBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs an instrumented program")
	}
	out := instrumentDir(t, filepath.Join("testdata", "spawn"), RewriteOptions{Prune: true})
	raw, output := runInstrumented(t, out, map[string]string{"probe.go": tidProbe})
	decodeChecked(t, raw)
	if !strings.Contains(output, "served 10000 live 1\n") {
		t.Errorf("want 10000 goroutines served and 1 tid left registered, got %q", output)
	}
}
