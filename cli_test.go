package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/span"
	"repro/internal/trace"
)

// buildTools compiles every command once per test binary.
var buildOnce sync.Once
var toolDir string
var buildErr error

func tools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "velotools")
		if err != nil {
			buildErr = err
			return
		}
		toolDir = dir
		for _, cmd := range []string{"velodrome", "velobench", "tracecheck", "veloinstr", "velodromed"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd).CombinedOutput()
			if err != nil {
				buildErr = err
				t.Logf("build %s: %s", cmd, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return toolDir
}

func runTool(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(tools(t), name), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return string(out), code
}

func TestCLIVelodromeList(t *testing.T) {
	out, code := runTool(t, "velodrome", "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, w := range []string{"elevator", "jigsaw", "raja"} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %s in listing", w)
		}
	}
}

func TestCLIVelodromeRun(t *testing.T) {
	out, code := runTool(t, "velodrome", "-workload", "philo", "-stats")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"velodrome:", "Table.recordMeal", "graph: allocated="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCLIVelodromeBackends(t *testing.T) {
	for _, be := range []string{"atomizer", "eraser", "empty"} {
		out, code := runTool(t, "velodrome", "-workload", "multiset", "-backend", be)
		if code != 0 {
			t.Errorf("backend %s: exit %d:\n%s", be, code, out)
		}
	}
	for _, be := range []string{"hb", "fasttrack"} {
		out, code := runTool(t, "velodrome", "-workload", "multiset", "-backend", be)
		if code != 2 || !strings.Contains(out, "unknown backend") {
			t.Errorf("backend %s is gone, want exit 2 naming it unknown; exit %d:\n%s", be, code, out)
		}
	}
	if _, code := runTool(t, "velodrome", "-workload", "nope"); code != 2 {
		t.Error("unknown workload should exit 2")
	}
	if _, code := runTool(t, "velodrome", "-workload", "philo", "-backend", "bogus"); code != 2 {
		t.Error("unknown backend should exit 2")
	}
}

func TestCLIRecordAndCheck(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.txt", "t.bin"} {
		path := filepath.Join(dir, name)
		out, code := runTool(t, "velodrome", "-workload", "raja", "-record", path)
		if code != 0 {
			t.Fatalf("record: exit %d:\n%s", code, out)
		}
		out, code = runTool(t, "tracecheck", path)
		if code != 0 {
			t.Fatalf("%s: raja must be serializable; exit %d:\n%s", name, code, out)
		}
		if !strings.Contains(out, "serializable") {
			t.Errorf("unexpected output:\n%s", out)
		}
	}
	// A violating workload round-trips to exit status 1.
	path := filepath.Join(dir, "bad.bin")
	runTool(t, "velodrome", "-workload", "multiset", "-record", path)
	out, code := runTool(t, "tracecheck", "-q", path)
	if code != 1 {
		t.Fatalf("multiset trace must be non-serializable; exit %d:\n%s", code, out)
	}
}

func TestCLITracecheckCorpus(t *testing.T) {
	out, code := runTool(t, "tracecheck", "testdata/flag_handoff.txt")
	if code != 0 || !strings.Contains(out, "serializable") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	out, code = runTool(t, "tracecheck", "testdata/setadd.txt")
	if code != 1 || !strings.Contains(out, "Set.add") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if _, code := runTool(t, "tracecheck", "no-such-file"); code != 2 {
		t.Error("missing file should exit 2")
	}
}

// TestCLITracecheckLongTrace: tracecheck always runs the offline oracle
// beside the engine, so a trace of hundreds of thousands of operations
// must come back in a single pass, not after n² pair tests.
func TestCLITracecheckLongTrace(t *testing.T) {
	tr := bench.SyntheticMix(300_000)
	path := filepath.Join(t.TempDir(), "mix.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.MarshalBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, "tracecheck", "-q", path)
	if want := fmt.Sprintf("serializable: %d operations", len(tr)); code != 0 || !strings.HasPrefix(out, want) {
		t.Fatalf("exit %d, want 0 and %q:\n%s", code, want, out)
	}
}

func TestCLIVelodromeJSONAndDot(t *testing.T) {
	out, code := runTool(t, "velodrome", "-workload", "multiset", "-json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, `"method":"Multiset.`) {
		t.Errorf("missing JSON warnings:\n%s", out)
	}
	dotPath := filepath.Join(t.TempDir(), "g.dot")
	out, code = runTool(t, "velodrome", "-workload", "multiset", "-dot", dotPath)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil || !strings.Contains(string(data), "digraph velodrome") {
		t.Errorf("dot output missing: %v", err)
	}
	// -json writes the graphs too.
	jsonDot := filepath.Join(t.TempDir(), "j.dot")
	out, code = runTool(t, "velodrome", "-workload", "multiset", "-json", "-dot", jsonDot)
	if code != 0 || !strings.Contains(out, `"method":"Multiset.`) {
		t.Fatalf("-json -dot: exit %d:\n%s", code, out)
	}
	if data, err := os.ReadFile(jsonDot); err != nil || !strings.Contains(string(data), "digraph velodrome") {
		t.Errorf("-json -dot wrote %q, %v", data, err)
	}
}

// TestCLIEveryEngineJSONAndDot: the renderings of a warning hold for every
// registered engine, AeroDrome's position-only warning included — it has
// no cycle, and -json used to dereference one.
func TestCLIEveryEngineJSONAndDot(t *testing.T) {
	for _, info := range core.Engines() {
		out, code := runTool(t, "velodrome", "-workload", "multiset", "-engine", info.Name, "-json")
		if code != 0 {
			t.Fatalf("%s: velodrome -json: exit %d:\n%s", info.Name, code, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		for _, line := range lines {
			var w struct {
				OpIndex *int              `json:"opIndex"`
				Cycle   []json.RawMessage `json:"cycle"`
			}
			if err := json.Unmarshal([]byte(line), &w); err != nil || w.OpIndex == nil {
				t.Fatalf("%s: velodrome -json printed %q: %v", info.Name, line, err)
			}
			if (len(w.Cycle) > 0) != (info.Engine != core.Aero) {
				t.Errorf("%s: warning at op %d carries %d cycle edges", info.Name, *w.OpIndex, len(w.Cycle))
			}
		}
		dotPath := filepath.Join(t.TempDir(), "g.dot")
		out, code = runTool(t, "tracecheck", "-engine", info.Name, "-dot", dotPath, "testdata/setadd.txt")
		if code != 1 {
			t.Fatalf("%s: tracecheck -dot: exit %d:\n%s", info.Name, code, out)
		}
		if data, err := os.ReadFile(dotPath); err != nil || !strings.Contains(string(data), "digraph velodrome") {
			t.Errorf("%s: tracecheck -dot wrote %q, %v", info.Name, data, err)
		}
	}
}

func TestCLIVelodromeDescribe(t *testing.T) {
	out, code := runTool(t, "velodrome", "-workload", "colt", "-describe")
	if code != 0 || !strings.Contains(out, "non-atomic(rare)") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestCLIVelobench(t *testing.T) {
	out, code := runTool(t, "velobench", "-table", "2", "-seeds", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"Table 2", "jigsaw", "0 / 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if _, code := runTool(t, "velobench"); code != 2 {
		t.Error("no arguments should exit 2 with usage")
	}
	for _, seeds := range []string{"x", "1x", "1.5"} {
		if _, code := runTool(t, "velobench", "-table", "2", "-seeds", seeds); code != 2 {
			t.Errorf("-seeds %s should exit 2, got %d", seeds, code)
		}
	}
}

// TestCLIStatsJSONSnapshot checks that -stats -json replaces the human
// graph table with one machine-readable obs snapshot object after the
// JSON warning lines.
func TestCLIStatsJSONSnapshot(t *testing.T) {
	out, code := runTool(t, "velodrome", "-workload", "multiset", "-stats", "-json")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if strings.Contains(out, "graph: allocated=") {
		t.Errorf("-json must suppress the human stats table:\n%s", out)
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var last map[string]json.RawMessage
	values := 0
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("value %d: %v\n%s", values, err, out)
		}
		values++
	}
	if values < 2 {
		t.Fatalf("want warning lines plus a snapshot, got %d JSON values", values)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := last[key]; !ok {
			t.Errorf("snapshot missing %q:\n%s", key, out)
		}
	}
	var counters map[string]int64
	if err := json.Unmarshal(last["counters"], &counters); err != nil {
		t.Fatal(err)
	}
	if counters["velodrome_warnings_total"] == 0 {
		t.Errorf("multiset should have recorded warnings: %v", counters)
	}
	if counters["rr_events_total"] == 0 {
		t.Errorf("scheduler events should be counted: %v", counters)
	}
	if counters[`velodrome_stage_ops_total{stage="graph"}`] == 0 {
		t.Errorf("an observed run publishes the engine's stage clock: %v", counters)
	}
	// The snapshot is a view of the same counters the human table prints.
	out, code = runTool(t, "velodrome", "-workload", "multiset", "-stats")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var gauges map[string]int64
	if err := json.Unmarshal(last["gauges"], &gauges); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("graph: allocated=%d maxAlive=%d collected=%d merged=%d recycled=%d\nfilter: events=%d edgeMemoHits=%d\n",
		counters["graph_nodes_allocated_total"], gauges["graph_nodes_max_alive"], counters["graph_nodes_collected_total"],
		counters["graph_merges_total"], counters["graph_nodes_recycled_total"],
		counters["core_events_filtered_total"], counters["graph_edges_memo_hits_total"])
	if !strings.Contains(out, want) {
		t.Errorf("-stats table does not match the -stats -json snapshot; want\n%sin\n%s", want, out)
	}
}

// TestCLIMetricsServe runs a workload big enough to outlast an HTTP
// round-trip and scrapes the live /metrics endpoint mid-run.
func TestCLIMetricsServe(t *testing.T) {
	cmd := exec.Command(filepath.Join(tools(t), "velodrome"),
		"-workload", "philo", "-scale", "2000", "-metrics-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	line, err := bufio.NewReader(stderr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading announce line: %v", err)
	}
	i := strings.Index(line, "http://")
	if i < 0 {
		t.Fatalf("no address announced: %q", line)
	}
	base := strings.TrimSpace(line[i:])
	// The address is announced before the workload registers its
	// instruments, so poll until the series shows up rather than racing
	// the first scheduler step.
	var body []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		// The engine's families are published at batch boundaries: a
		// live node count and the sampled stage clock show mid-run.
		if s := string(body); strings.Contains(s, "# TYPE rr_sched_steps_total counter") &&
			strings.Contains(s, "\ngraph_nodes_alive ") && !strings.Contains(s, "\ngraph_nodes_alive 0\n") &&
			strings.Contains(s, `velodrome_stage_ns_total{stage="graph"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("rr_sched_steps_total, a non-zero graph_nodes_alive and the graph stage clock never appeared together; last exposition:\n%.2000s", body)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp, err := http.Get(base + "/debug/pprof/cmdline"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("pprof status %d", resp.StatusCode)
		}
	} else {
		t.Errorf("GET /debug/pprof/cmdline: %v", err)
	}
	go io.Copy(io.Discard, stderr)
}

// TestCLIProfileFlag covers -profile on velodrome and -obs-json plus
// -profile on tracecheck (whose non-zero exits bypass defers).
func TestCLIProfileFlag(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	out, code := runTool(t, "velodrome", "-workload", "philo", "-profile", "cpu", "-profile-out", prof)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}

	prof2 := filepath.Join(dir, "mem.pprof")
	out, code = runTool(t, "tracecheck", "-q", "-obs-json", "-profile", "mem", "-profile-out", prof2, "testdata/setadd.txt")
	if code != 1 {
		t.Fatalf("setadd must stay non-serializable; exit %d:\n%s", code, out)
	}
	if fi, err := os.Stat(prof2); err != nil || fi.Size() == 0 {
		t.Errorf("mem profile not written on exit-1 path: %v", err)
	}
	if !strings.Contains(out, `"velodrome_warnings_total":3`) {
		t.Errorf("-obs-json snapshot missing:\n%s", out)
	}
}

// runToolStdin is runTool with the contents of a file piped to stdin.
func runToolStdin(t *testing.T, stdinPath, name string, args ...string) (string, int) {
	t.Helper()
	f, err := os.Open(stdinPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cmd := exec.Command(filepath.Join(tools(t), name), args...)
	cmd.Stdin = f
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return string(out), code
}

// TestCLITracecheckEmptyInput is the regression for the silent-success
// hole: an empty stream (crashed producer, misdirected pipe) must be an
// input error, not exit 0 with "serializable".
func TestCLITracecheckEmptyInput(t *testing.T) {
	out, code := runToolStdin(t, os.DevNull, "tracecheck", "-in", "-")
	if code != 2 {
		t.Fatalf("empty stdin must exit 2, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "empty trace") {
		t.Errorf("missing empty-trace diagnostic:\n%s", out)
	}
	// A comment-only trace is just as empty.
	p := filepath.Join(t.TempDir(), "comments.txt")
	if err := os.WriteFile(p, []byte("# velo events emitted=0 pruned=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runTool(t, "tracecheck", p); code != 2 || !strings.Contains(out, "empty trace") {
		t.Errorf("comment-only trace: exit %d:\n%s", code, out)
	}
}

// TestCLITracecheckTruncatedMagic checks that a binary trace cut inside
// its 4-byte magic is reported as a format-level error naming the byte
// offset, not as a "line 1" text parse error.
func TestCLITracecheckTruncatedMagic(t *testing.T) {
	p := filepath.Join(t.TempDir(), "stub.bin")
	if err := os.WriteFile(p, []byte("VT"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, "tracecheck", p)
	if code != 2 {
		t.Fatalf("truncated magic must exit 2, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "truncated binary trace") || !strings.Contains(out, "byte offset 2") {
		t.Errorf("missing format-level diagnostic:\n%s", out)
	}
	if strings.Contains(out, "line 1") {
		t.Errorf("must not surface as a text parse error:\n%s", out)
	}
}

// TestCLIBinaryStreamMustEnd: the streaming binary format an instrumented
// program writes is whole only with its end record. A stream that is
// cut, padded, or left open by a producer that never reached _velo_done
// is an input error (exit 2) on every consumer — tracecheck, tracecheck
// -server, veloinstr -run and veloinstr -run -server — never a verdict
// on the prefix.
func TestCLIBinaryStreamMustEnd(t *testing.T) {
	addr, drain := startVelodromed(t)
	defer drain()

	tr, err := trace.ReadAuto(strings.NewReader("begin.m(1)\nrd(1,x0)\nwr(1,x0)\nend(1)\nrd(2,x0)\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.MarshalStream(&buf, tr, "velo events emitted=5 pruned=2"); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		body []byte
		code int
		want string
	}{
		{"whole", whole, 0, "# velo events emitted=5 pruned=2"},
		{"cut", whole[:len(whole)-10], 2, "truncated binary stream"},
		{"unended", whole[:bytes.IndexByte(whole, 0xFF)], 2, "truncated binary stream"},
		{"padded", append(bytes.Clone(whole), '\n'), 2, "bytes follow"},
	} {
		p := filepath.Join(dir, c.name+".vts")
		if err := os.WriteFile(p, c.body, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{p}, {"-server", addr, p}} {
			out, code := runTool(t, "tracecheck", args...)
			if code != c.code || !strings.Contains(out, c.want) {
				t.Errorf("tracecheck %v: exit %d, want %d and %q:\n%s", args, code, c.code, c.want, out)
			}
			if c.code != 0 && strings.Contains(out, "serializable") {
				t.Errorf("tracecheck %v: a verdict on a stream that never ended:\n%s", args, out)
			}
		}
	}

	for _, args := range [][]string{{"-run"}, {"-run", "-server", addr}} {
		out, code := runTool(t, "veloinstr", append(args, "testdata/instr/earlyexit")...)
		if code != 2 || !strings.Contains(out, "truncated binary stream") || strings.Contains(out, "serializable") {
			t.Errorf("veloinstr %v on a program that exits without closing its trace: exit %d, want 2 and the truncation named:\n%s", args, code, out)
		}
	}
}

// startVelodromed launches the daemon on an ephemeral port and returns
// its address and a drain func asserting a clean SIGTERM shutdown.
func startVelodromed(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(filepath.Join(tools(t), "velodromed"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The daemon logs via slog; scan for the structured listen record
	// (other records, e.g. the metrics announce, may precede it).
	br := bufio.NewReader(stderr)
	var addr string
	for addr == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading announce line: %v", err)
		}
		if !strings.Contains(line, "msg=listening") {
			continue
		}
		i := strings.Index(line, "addr=")
		if i < 0 {
			t.Fatalf("listen record without addr attr: %q", line)
		}
		addr = strings.TrimSpace(line[i+len("addr="):])
		if j := strings.IndexByte(addr, ' '); j >= 0 {
			addr = addr[:j]
		}
	}
	go io.Copy(io.Discard, br)
	return addr, func() {
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("velodromed did not drain cleanly: %v", err)
		}
	}
}

// TestCLIVelodromedRoundTrip covers the daemon end to end: tracecheck
// -server gets per-trace verdicts with the right exit codes, empty
// streams come back malformed, and SIGTERM drains cleanly.
func TestCLIVelodromedRoundTrip(t *testing.T) {
	addr, drain := startVelodromed(t)
	defer drain()

	out, code := runTool(t, "tracecheck", "-server", addr, "testdata/flag_handoff.txt")
	if code != 0 || !strings.Contains(out, "serializable") || !strings.Contains(out, addr) {
		t.Fatalf("clean trace via daemon: exit %d:\n%s", code, out)
	}
	// The verdict line names the daemon-side session and its duration.
	if !strings.Contains(out, "session s") || !strings.Contains(out, "ms)") {
		t.Fatalf("verdict line missing session id/duration:\n%s", out)
	}
	out, code = runTool(t, "tracecheck", "-server", addr, "testdata/setadd.txt")
	if code != 1 || !strings.Contains(out, "NOT serializable") || !strings.Contains(out, "Set.add") {
		t.Fatalf("buggy trace via daemon: exit %d:\n%s", code, out)
	}
	// -explain requests forensics for the session: the relayed verdict
	// carries a provenance report per warning.
	out, code = runTool(t, "tracecheck", "-server", addr, "-explain", "testdata/setadd.txt")
	if code != 1 || !strings.Contains(out, "provenance:") || !strings.Contains(out, "cycle edges:") {
		t.Fatalf("-explain via daemon: exit %d:\n%s", code, out)
	}
	out, code = runToolStdin(t, os.DevNull, "tracecheck", "-server", addr, "-in", "-")
	if code != 2 || !strings.Contains(out, "empty trace") {
		t.Fatalf("empty stream via daemon: exit %d:\n%s", code, out)
	}
	// The engine is selectable per session — among the production
	// engines: the Figure 2 reference engine stays a local -engine.
	out, code = runTool(t, "tracecheck", "-server", addr, "-engine", "aerodrome", "testdata/setadd.txt")
	if code != 1 || !strings.Contains(out, "checked by aerodrome") {
		t.Fatalf("aerodrome engine via daemon: exit %d:\n%s", code, out)
	}
	out, code = runTool(t, "tracecheck", "-server", addr, "-engine", "basic", "testdata/setadd.txt")
	if code != 2 || !strings.Contains(out, `unknown engine "basic"`) {
		t.Fatalf("basic engine via daemon: exit %d:\n%s", code, out)
	}
	if out, code = runTool(t, "tracecheck", "-engine", "basic", "testdata/setadd.txt"); code != 1 {
		t.Fatalf("basic engine locally: exit %d:\n%s", code, out)
	}
}

// TestCLITracecheckExplain covers the local forensics path: -explain
// prints a provenance report per warning and -forensics -dot writes the
// provenance rendering with trace spans and access pairs.
func TestCLITracecheckExplain(t *testing.T) {
	out, code := runTool(t, "tracecheck", "-explain", "testdata/setadd.txt")
	if code != 1 {
		t.Fatalf("setadd must stay non-serializable; exit %d:\n%s", code, out)
	}
	for _, want := range []string{"provenance:", "transactions:", "cycle edges:", "flight recorder", "← blamed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -explain output:\n%s", want, out)
		}
	}
	dotPath := filepath.Join(t.TempDir(), "g.dot")
	out, code = runTool(t, "tracecheck", "-q", "-forensics", "-dot", dotPath, "testdata/setadd.txt")
	if code != 1 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph velodrome") || !strings.Contains(string(data), "ops ") {
		t.Errorf("forensic dot rendering missing trace spans:\n%s", data)
	}
}

// TestCLIVelodromedDebugEndpoint scrapes the daemon's live /debug/velo
// session listing in both renderings.
func TestCLIVelodromedDebugEndpoint(t *testing.T) {
	cmd := exec.Command(filepath.Join(tools(t), "velodromed"),
		"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("velodromed did not drain cleanly: %v", err)
		}
	}()
	// Wait for the trace listener too: the signal handler is installed
	// after it, and the deferred SIGTERM must not beat it.
	br := bufio.NewReader(stderr)
	var base string
	listening := false
	for base == "" || !listening {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading metrics announce: %v", err)
		}
		if i := strings.Index(line, "url=http://"); i >= 0 {
			base = strings.TrimSpace(line[i+len("url="):])
			if j := strings.IndexByte(base, ' '); j >= 0 {
				base = base[:j]
			}
		}
		if strings.Contains(line, "msg=listening") {
			listening = true
		}
	}
	go io.Copy(io.Discard, br)

	resp, err := http.Get(base + "/debug/velo")
	if err != nil {
		t.Fatalf("GET /debug/velo: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "velodromed sessions") {
		t.Errorf("HTML listing: status %d body:\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/debug/velo?format=json")
	if err != nil {
		t.Fatalf("GET /debug/velo?format=json: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var state struct {
		Active      int `json:"active"`
		MaxSessions int `json:"maxSessions"`
	}
	if err := json.Unmarshal(body, &state); err != nil {
		t.Fatalf("JSON listing did not decode: %v\n%s", err, body)
	}
	if state.MaxSessions == 0 {
		t.Errorf("maxSessions missing from %s", body)
	}
}

// TestCLIVeloinstrRunServer streams an instrumented program's trace
// straight to the daemon and relays its verdict.
func TestCLIVeloinstrRunServer(t *testing.T) {
	addr, drain := startVelodromed(t)
	defer drain()
	out, code := runTool(t, "veloinstr", "-run", "-server", addr, "examples/instr/bankbug")
	if code != 1 {
		t.Fatalf("bankbug via daemon must exit 1, got %d:\n%s", code, out)
	}
	for _, want := range []string{"NOT serializable", "withdrawAll", "checked by optimized at " + addr, "velo events emitted="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// -server without -run is a usage error.
	if _, code := runTool(t, "veloinstr", "-server", addr, "examples/instr/bankbug"); code != 2 {
		t.Errorf("-server without -run should exit 2, got %d", code)
	}
}

// TestCLIVeloinstrAnalyze checks the classification table: the bank
// example must show a nonzero pruned set with the right classes. Its
// annotations are well formed, so -analyze exits 0.
func TestCLIVeloinstrAnalyze(t *testing.T) {
	out, code := runTool(t, "veloinstr", "-analyze", "examples/instr/bankbug")
	if code != 0 {
		t.Fatalf("bankbug's annotations are well formed, want exit 0; exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"1 shared, 1 thread-local, 2 lock-protected",
		"balance", "pruned (held: mu)",
		"openingBalance", "thread-local",
		"atomic blocks: [withdrawAll]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	out, code = runTool(t, "veloinstr", "-analyze", "examples/instr/bankfixed")
	if code != 0 {
		t.Fatalf("bankfixed's annotations are well formed, want exit 0; exit %d:\n%s", code, out)
	}
}

// TestCLIVeloinstrAnalyzeJSON checks the machine-readable report: the
// classification rows and the annotation diagnostics, under the keys
// package, vars, atomic_blocks and diagnostics.
func TestCLIVeloinstrAnalyzeJSON(t *testing.T) {
	out, code := runTool(t, "veloinstr", "-analyze", "-json", "examples/instr/auditbug")
	if code != 0 {
		t.Fatalf("auditbug's annotations are well formed, want exit 0; exit %d:\n%s", code, out)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &keys); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out)
	}
	for _, k := range []string{"package", "vars", "atomic_blocks", "diagnostics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q in:\n%s", k, out)
		}
	}
	var rep struct {
		Package string `json:"package"`
		Vars    []struct {
			Name      string `json:"name"`
			Class     string `json:"class"`
			Lock      string `json:"lock"`
			Interproc bool   `json:"interprocedural"`
		} `json:"vars"`
		Diagnostics []struct {
			Pos      string `json:"pos"`
			Severity string `json:"severity"`
			Code     string `json:"code"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out)
	}
	ledger := false
	for _, v := range rep.Vars {
		if v.Name == "ledger" {
			ledger = true
			if v.Class != "lock-protected" || v.Lock != "mu" || !v.Interproc {
				t.Errorf("ledger must be interprocedurally lock-protected: %+v", v)
			}
		}
	}
	if !ledger {
		t.Errorf("ledger row missing: %s", out)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("auditbug has no ill-formed annotation: %+v", rep.Diagnostics)
	}

	// Ill-formed annotations are error-severity velo-directive entries.
	out, code = runTool(t, "veloinstr", "-analyze", "-json", "testdata/instr/badannot")
	if code != 1 {
		t.Fatalf("badannot must exit 1; exit %d:\n%s", code, out)
	}
	rep.Diagnostics = nil
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out)
	}
	if len(rep.Diagnostics) != 4 {
		t.Errorf("want 4 diagnostics, got %+v", rep.Diagnostics)
	}
	for _, d := range rep.Diagnostics {
		if d.Pos == "" || d.Severity != "error" || d.Code != "velo-directive" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
	// -json without -analyze is a usage error.
	if _, code := runTool(t, "veloinstr", "-json", "examples/instr/auditbug"); code != 2 {
		t.Errorf("-json without -analyze should exit 2, got %d", code)
	}
}

// TestCLIVeloinstrIntra checks that -intra disables the interprocedural
// entry-lock inference: the audit ledger (mutated only by helpers that
// never lock) degrades from lock-protected to shared.
func TestCLIVeloinstrIntra(t *testing.T) {
	out, _ := runTool(t, "veloinstr", "-analyze", "examples/instr/auditfixed")
	if !strings.Contains(out, "pruned (held: mu, interprocedural)") {
		t.Fatalf("default analysis must prove ledger lock-protected:\n%s", out)
	}
	outIntra, _ := runTool(t, "veloinstr", "-analyze", "-intra", "examples/instr/auditfixed")
	if strings.Contains(outIntra, "interprocedural") {
		t.Errorf("-intra must not report interprocedural facts:\n%s", outIntra)
	}
	if !strings.Contains(outIntra, "2 shared") {
		t.Errorf("-intra must classify ledger shared:\n%s", outIntra)
	}
}

// TestCLIVeloinstrAnnotationLint checks -analyze's well-formedness
// pass over //velo: directives on a fixture where every one is bad.
func TestCLIVeloinstrAnnotationLint(t *testing.T) {
	out, code := runTool(t, "veloinstr", "-analyze", "testdata/instr/badannot")
	if code != 1 {
		t.Fatalf("ill-formed annotations must exit 1; exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"unknown directive //velo:atomicc",
		"malformed //velo:atomic label",
		"must be in the doc comment of a function declaration",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Outside -analyze, bad annotations are an input error (exit 2).
	if _, code := runTool(t, "veloinstr", "testdata/instr/badannot"); code != 2 {
		t.Errorf("instrumenting badannot should exit 2, got %d", code)
	}
}

// TestCLIVeloinstrUnresolvedImport: an import go list cannot resolve
// fails type-checking, so instrumenting and -analyze both exit 2 and
// name the import.
func TestCLIVeloinstrUnresolvedImport(t *testing.T) {
	dir := t.TempDir()
	src := "package main\n\nimport \"nosuch/pkg\"\n\nfunc main() { pkg.F() }\n"
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"veloinstr", "-o", filepath.Join(t.TempDir(), "out"), dir},
		{"veloinstr", "-analyze", dir},
	} {
		out, code := runTool(t, args[0], args[1:]...)
		if code != 2 || !strings.Contains(out, "nosuch/pkg") {
			t.Errorf("%v: want exit 2 naming nosuch/pkg; exit %d:\n%s", args, code, out)
		}
	}
}

// TestCLIVeloinstrRunBankbug is the headline end-to-end path: the
// seeded atomicity bug must be reported by every registered engine with
// the serial oracle agreeing, and the saved trace must round-trip
// through tracecheck's new stdin mode with the same verdict.
func TestCLIVeloinstrRunBankbug(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "bankbug.trace")
	out, code := runTool(t, "veloinstr", "-run", "-trace", tracePath, "examples/instr/bankbug")
	if code != 1 {
		t.Fatalf("bankbug must be non-serializable; exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"NOT serializable",
		"optimized, aerodrome engines and serial oracle agree",
		"withdrawAll",
		"is not atomic",
		"pruned",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	out, code = runToolStdin(t, tracePath, "tracecheck", "-q", "-in", "-")
	if code != 1 || !strings.Contains(out, "NOT serializable") {
		t.Fatalf("tracecheck -in - on the saved trace: exit %d:\n%s", code, out)
	}
}

func TestCLIVeloinstrRunFixed(t *testing.T) {
	out, code := runTool(t, "veloinstr", "-run", "examples/instr/bankfixed")
	if code != 0 {
		t.Fatalf("bankfixed must be serializable; exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "serializable: optimized, aerodrome engines agree, serial oracle confirms") {
		t.Errorf("missing agreement line:\n%s", out)
	}
}

// warningLabels extracts the set of atomicity-violation labels (the
// "<label>@" prefix of each warning line) from a -run transcript, so
// differential tests compare which functions were blamed rather than
// operation indices, which legitimately shift when pruning changes the
// trace.
func warningLabels(out string) map[string]bool {
	labels := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, "warning: ")
		if !ok {
			continue
		}
		if label, _, ok := strings.Cut(rest, "@"); ok {
			labels[label] = true
		}
	}
	return labels
}

// TestCLIVeloinstrPruneSound is the empirical soundness check for the
// redundant-event optimization: on every example — including the audit
// pair, where the interprocedural fixpoint does the pruning — the
// instrumented run with and without pruning must yield the same verdict
// and blame the same atomic functions.
func TestCLIVeloinstrPruneSound(t *testing.T) {
	for _, ex := range []string{"bankbug", "bankfixed", "counter", "auditbug", "auditfixed"} {
		dir := "examples/instr/" + ex
		outP, codeP := runTool(t, "veloinstr", "-run", dir)
		outN, codeN := runTool(t, "veloinstr", "-run", "-noprune", dir)
		if codeP == 2 || codeN == 2 {
			t.Fatalf("%s: infrastructure error\npruned:\n%s\nnoprune:\n%s", ex, outP, outN)
		}
		if codeP != codeN {
			t.Errorf("%s: pruning changed the verdict: pruned exit %d, noprune exit %d\npruned:\n%s\nnoprune:\n%s",
				ex, codeP, codeN, outP, outN)
		}
		if !strings.Contains(outN, " 0 pruned)") {
			t.Errorf("%s: -noprune must not prune:\n%s", ex, outN)
		}
		lp, ln := warningLabels(outP), warningLabels(outN)
		if len(lp) != len(ln) {
			t.Errorf("%s: pruning changed the blamed set: %v vs %v", ex, lp, ln)
		}
		for l := range lp {
			if !ln[l] {
				t.Errorf("%s: pruned run blames %s, noprune run does not", ex, l)
			}
		}
	}
}

// TestCLIVeloinstrRunAudit is the dynamic half of the interprocedural
// pruning story: auditbug's violation must still be caught with the
// ledger accesses pruned (the lock events alone carry the cycle), and
// auditfixed must stay clean.
func TestCLIVeloinstrRunAudit(t *testing.T) {
	out, code := runTool(t, "veloinstr", "-run", "examples/instr/auditbug")
	if code != 1 {
		t.Fatalf("auditbug must be non-serializable; exit %d:\n%s", code, out)
	}
	for _, want := range []string{"NOT serializable", "reconcile", "is not atomic"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	out, code = runTool(t, "veloinstr", "-run", "examples/instr/auditfixed")
	if code != 0 {
		t.Fatalf("auditfixed must be serializable; exit %d:\n%s", code, out)
	}
}

// TestCLITracecheckTraceOut records a filter-heavy workload, checks it
// locally with -trace-out, and asserts the exported file is valid
// Chrome trace-event JSON with the pipeline's decode → check →
// filter/graph nesting. -trace-out with -server is a usage error: the
// daemon traces its own sessions.
func TestCLITracecheckTraceOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "multiset.bin")
	if out, code := runTool(t, "velodrome", "-workload", "multiset", "-record", tracePath); code != 0 {
		t.Fatalf("record: exit %d:\n%s", code, out)
	}
	outPath := filepath.Join(dir, "pipeline.trace.json")
	out, code := runTool(t, "tracecheck", "-q", "-trace-out", outPath, tracePath)
	if code != 1 {
		t.Fatalf("multiset must stay non-serializable; exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "wrote pipeline trace to "+outPath) {
		t.Errorf("missing trace-out notice:\n%s", out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	n, err := span.ValidateChrome(data)
	if err != nil || n == 0 {
		t.Fatalf("exported trace invalid (%d spans): %v", n, err)
	}
	for _, nest := range [][2]string{
		{"decode", "session"},
		{"check", "session"},
		{"filter", "check"},
		{"graph", "check"},
	} {
		if !span.FindSpan(data, nest[0], nest[1]) {
			t.Errorf("trace missing %q nested under %q", nest[0], nest[1])
		}
	}
	// What the daemon cannot honour is refused before anything is sent.
	dotPath := filepath.Join(t.TempDir(), "out.dot")
	for _, local := range [][]string{
		{"-trace-out", outPath}, {"-nofilter"}, {"-dot", dotPath}, {"-obs-json"},
	} {
		args := append(append([]string{"tracecheck"}, local...), "-server", "127.0.0.1:1", tracePath)
		if out, code := runTool(t, args[0], args[1:]...); code != 2 ||
			!strings.Contains(out, local[0]+" does not apply to -server") {
			t.Errorf("%s with -server: exit %d:\n%s", local[0], code, out)
		}
	}
	if _, err := os.Stat(dotPath); err == nil {
		t.Errorf("-dot with -server wrote %s", dotPath)
	}
}

// TestCLIVelodromedSessionHistory drives the daemon's whole
// observability surface over HTTP: velo_build_info on /metrics, the
// verdict history on /api/sessions (list, per-id, 404), the /debug/velo
// recent table with its per-session drill-down, the per-stage span
// metrics in verdicts, and the -trace-dir Chrome export.
func TestCLIVelodromedSessionHistory(t *testing.T) {
	traceDir := t.TempDir()
	cmd := exec.Command(filepath.Join(tools(t), "velodromed"),
		"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-trace-dir", traceDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("velodromed did not drain cleanly: %v", err)
		}
	}()
	// Collect both announces: the metrics URL and the trace listener.
	br := bufio.NewReader(stderr)
	var base, addr string
	for base == "" || addr == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading announces: %v", err)
		}
		if i := strings.Index(line, "url=http://"); i >= 0 {
			base = strings.TrimSpace(line[i+len("url="):])
			if j := strings.IndexByte(base, ' '); j >= 0 {
				base = base[:j]
			}
		}
		if strings.Contains(line, "msg=listening") {
			if i := strings.Index(line, "addr="); i >= 0 {
				addr = strings.TrimSpace(line[i+len("addr="):])
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
			}
		}
	}
	go io.Copy(io.Discard, br)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if _, body := get("/metrics"); !strings.Contains(string(body), "velo_build_info{") ||
		!strings.Contains(string(body), "velo_process_start_time_seconds") {
		t.Errorf("/metrics missing build info:\n%.800s", body)
	}

	// One forensics session: its history record must carry the warning
	// digest, span summary, provenance report and trace file.
	out, code := runTool(t, "tracecheck", "-server", addr, "-explain", "testdata/setadd.txt")
	if code != 1 {
		t.Fatalf("setadd via daemon: exit %d:\n%s", code, out)
	}

	code, body := get("/api/sessions")
	if code != 200 {
		t.Fatalf("/api/sessions: status %d", code)
	}
	var page struct {
		Total    int64 `json:"total"`
		Sessions []struct {
			Session      string `json:"session"`
			Serializable bool   `json:"serializable"`
			Warnings     []string
			Spans        *struct {
				Stages map[string]struct {
					Count int64 `json:"count"`
					Ns    int64 `json:"ns"`
				} `json:"stages"`
			} `json:"spans"`
			TraceFile string `json:"traceFile"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("session list: %v\n%s", err, body)
	}
	if page.Total != 1 || len(page.Sessions) != 1 {
		t.Fatalf("list %s, want exactly the one session", body)
	}
	rec := page.Sessions[0]
	if rec.Serializable || len(rec.Warnings) == 0 || !strings.Contains(rec.Warnings[0], "Set.add") {
		t.Errorf("record %+v, want a Set.add warning digest", rec)
	}
	if rec.Spans == nil || rec.Spans.Stages["decode"].Ns <= 0 || rec.Spans.Stages["graph"].Ns <= 0 {
		t.Errorf("record missing stage rollup: %s", body)
	}
	if code, body := get("/api/sessions/" + rec.Session); code != 200 ||
		!strings.Contains(string(body), `"reports"`) {
		t.Errorf("per-id record: status %d\n%s", code, body)
	}
	if code, _ := get("/api/sessions/s999"); code != 404 {
		t.Errorf("unknown session: status %d, want 404", code)
	}

	// The exported per-session timeline is valid Chrome trace JSON.
	if !strings.HasPrefix(rec.TraceFile, traceDir) {
		t.Fatalf("trace file %q not under -trace-dir %q", rec.TraceFile, traceDir)
	}
	data, err := os.ReadFile(rec.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := span.ValidateChrome(data); err != nil || n == 0 {
		t.Fatalf("session trace invalid (%d spans): %v", n, err)
	}
	if !span.FindSpan(data, "decode", "session") || !span.FindSpan(data, "verdict", "session") {
		t.Errorf("session trace missing pipeline nesting:\n%s", data)
	}

	// The dashboard lists the session and drills into its warning + DOT.
	code, body = get("/debug/velo")
	if code != 200 || !strings.Contains(string(body), "?session="+rec.Session) {
		t.Errorf("dashboard missing recent session: status %d\n%s", code, body)
	}
	code, body = get("/debug/velo?session=" + rec.Session)
	if code != 200 {
		t.Fatalf("drill-down: status %d", code)
	}
	for _, want := range []string{rec.Session, "Set.add", "digraph velodrome", "decode", "graph"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("drill-down missing %q:\n%s", want, body)
		}
	}
	if code, _ = get("/debug/velo?session=s999"); code != 404 {
		t.Errorf("drill-down for unknown session: status %d, want 404", code)
	}
}

// startVelodromedFull launches the daemon with the given extra flags and
// returns the process plus its trace address and metrics base URL. The
// caller owns shutdown (no drain func: crash tests signal it directly).
func startVelodromedFull(t *testing.T, extraArgs ...string) (*exec.Cmd, string, string) {
	t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(filepath.Join(tools(t), "velodromed"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(stderr)
	var base, addr string
	for base == "" || addr == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading announces: %v", err)
		}
		if i := strings.Index(line, "url=http://"); i >= 0 {
			base = strings.TrimSpace(line[i+len("url="):])
			if j := strings.IndexByte(base, ' '); j >= 0 {
				base = base[:j]
			}
		}
		if strings.Contains(line, "msg=listening") {
			if i := strings.Index(line, "addr="); i >= 0 {
				addr = strings.TrimSpace(line[i+len("addr="):])
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
			}
		}
	}
	go io.Copy(io.Discard, br)
	return cmd, addr, base
}

// apiSessions fetches and decodes /api/sessions from a daemon's metrics
// endpoint.
func apiSessions(t *testing.T, base string) (int64, []map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(base + "/api/sessions?limit=1000")
	if err != nil {
		t.Fatalf("GET /api/sessions: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("/api/sessions: status %d\n%s", resp.StatusCode, body)
	}
	var page struct {
		Total    int64                        `json:"total"`
		Sessions []map[string]json.RawMessage `json:"sessions"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("/api/sessions did not decode: %v\n%s", err, body)
	}
	return page.Total, page.Sessions
}

// TestCLIVelodromedRestartDurability is the graceful half of the store's
// restart contract: verdicts served before a SIGTERM must be served by
// /api/sessions after a restart on the same store directory, and the
// restarted daemon must not reissue session ids clients may still hold.
func TestCLIVelodromedRestartDurability(t *testing.T) {
	dir := t.TempDir()
	cmd, addr, base := startVelodromedFull(t, "-store-dir", dir)

	var preIDs []string
	for i := 0; i < 3; i++ {
		out, code := runTool(t, "tracecheck", "-server", addr, "testdata/setadd.txt")
		if code != 1 {
			t.Fatalf("session %d: exit %d:\n%s", i, code, out)
		}
		j := strings.Index(out, "session s")
		if j < 0 {
			t.Fatalf("no session id in verdict line:\n%s", out)
		}
		id := out[j+len("session "):]
		if k := strings.IndexAny(id, " ,)"); k >= 0 {
			id = id[:k]
		}
		preIDs = append(preIDs, id)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("velodromed did not drain cleanly: %v", err)
	}

	cmd, addr, base = startVelodromedFull(t, "-store-dir", dir)
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("restarted velodromed did not drain cleanly: %v", err)
		}
	}()

	total, recs := apiSessions(t, base)
	if total != 3 || len(recs) != 3 {
		t.Fatalf("after restart: total=%d retained=%d, want the 3 pre-restart sessions", total, len(recs))
	}
	served := map[string]bool{}
	for _, rec := range recs {
		var id, status string
		json.Unmarshal(rec["session"], &id)
		json.Unmarshal(rec["status"], &status)
		if status != "ok" {
			t.Errorf("recovered record %s has status %q", id, status)
		}
		served[id] = true
	}
	for _, id := range preIDs {
		if !served[id] {
			t.Errorf("pre-restart session %s missing after restart (have %v)", id, served)
		}
	}

	// A new session must get a fresh id above everything recovered.
	out, code := runTool(t, "tracecheck", "-server", addr, "testdata/flag_handoff.txt")
	if code != 0 {
		t.Fatalf("post-restart session: exit %d:\n%s", code, out)
	}
	total, recs = apiSessions(t, base)
	if total != 4 {
		t.Errorf("post-restart total=%d, want 4", total)
	}
	ids := map[string]int{}
	for _, rec := range recs {
		var id string
		json.Unmarshal(rec["session"], &id)
		ids[id]++
	}
	for id, n := range ids {
		if n != 1 {
			t.Errorf("session id %s served %d times: restart reissued a live id", id, n)
		}
	}
}

// TestCLIVelodromedCrashDurability is the unclean half: SIGKILL the
// daemon mid-load and assert the restarted daemon serves every verdict a
// client saw before the kill — the store fsyncs each record before the
// verdict goes out — with at most in-flight sessions missing and nothing
// corrupted.
func TestCLIVelodromedCrashDurability(t *testing.T) {
	dir := t.TempDir()
	cmd, addr, _ := startVelodromedFull(t, "-store-dir", dir)

	// Phase 1: sessions whose verdicts the client has seen. These MUST
	// survive the kill.
	for i := 0; i < 4; i++ {
		if out, code := runTool(t, "tracecheck", "-server", addr, "testdata/setadd.txt"); code != 1 {
			t.Fatalf("session %d: exit %d:\n%s", i, code, out)
		}
	}
	// Phase 2: in-flight load at the moment of the kill. Outcomes don't
	// matter — these are the tail the store may legitimately lose.
	var inflight sync.WaitGroup
	for i := 0; i < 4; i++ {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			exec.Command(filepath.Join(toolDir, "tracecheck"),
				"-server", addr, "testdata/flag_handoff.txt").Run()
		}()
	}
	cmd.Process.Kill()
	cmd.Wait() // "signal: killed" — expected, nothing to assert
	inflight.Wait()

	cmd, addr, base := startVelodromedFull(t, "-store-dir", dir)
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("restarted velodromed did not drain cleanly: %v", err)
		}
	}()

	total, recs := apiSessions(t, base)
	if total < 4 {
		t.Errorf("after crash: total=%d, want at least the 4 acknowledged sessions", total)
	}
	if total > 8 {
		t.Errorf("after crash: total=%d, more records than sessions ever attempted", total)
	}
	ids := map[string]bool{}
	for _, rec := range recs {
		var id, status string
		if err := json.Unmarshal(rec["session"], &id); err != nil || id == "" {
			t.Fatalf("corrupted recovered record: %v", rec)
		}
		json.Unmarshal(rec["status"], &status)
		if status != "ok" {
			t.Errorf("recovered record %s has status %q", id, status)
		}
		if ids[id] {
			t.Errorf("recovered record %s duplicated", id)
		}
		ids[id] = true
	}

	// The daemon still takes sessions on the recovered store.
	if out, code := runTool(t, "tracecheck", "-server", addr, "testdata/setadd.txt"); code != 1 {
		t.Fatalf("post-crash session: exit %d:\n%s", code, out)
	}
}

// TestCLIVelobenchTraceOut checks the experiment timeline export: one
// span per experiment under the velobench root.
func TestCLIVelobenchTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.trace.json")
	out, code := runTool(t, "velobench", "-table", "2", "-seeds", "1", "-trace-out", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "velobench: wrote pipeline trace to "+path) {
		t.Errorf("missing timeline notice:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := span.ValidateChrome(data); err != nil || n == 0 {
		t.Fatalf("timeline invalid (%d spans): %v", n, err)
	}
	if !span.FindSpan(data, "table2", "velobench") {
		t.Errorf("timeline missing table2 under velobench:\n%s", data)
	}
}

// TestCLIVeloinstrObsJSON checks that -run surfaces the front-end
// metrics through the obs snapshot.
func TestCLIVeloinstrObsJSON(t *testing.T) {
	out, code := runTool(t, "veloinstr", "-run", "-obs-json", "examples/instr/counter")
	if code != 1 {
		t.Fatalf("counter must be non-serializable; exit %d:\n%s", code, out)
	}
	for _, want := range []string{`"instr_vars_lock_protected":1`, `"instr_sites_pruned":`, `"instr_trace_ops":`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in obs snapshot:\n%s", want, out)
		}
	}
}

// -update-analyze-golden rewrites testdata/analyze.golden from the
// current veloinstr -analyze output instead of diffing against it.
var updateAnalyzeGolden = flag.Bool("update-analyze-golden", false, "rewrite testdata/analyze.golden")

// analyzeGoldenDirs are the packages whose classification
// testdata/analyze.golden pins.
var analyzeGoldenDirs = []string{
	"examples/instr/auditbug",
	"examples/instr/auditfixed",
	"examples/instr/bankbug",
	"examples/instr/bankfixed",
	"examples/instr/counter",
	"testdata/instr/badannot",
	"testdata/instr/earlyexit",
	"testdata/instr/spam",
}

// diagLine matches one rendered diagnostic ("file:line:col: severity:
// message [code]") and captures its code.
var diagLine = regexp.MustCompile(`^\S+:\d+:\d+: [a-z]+: .* \[([a-z-]+)\]$`)

// directiveDiagnosticsOnly drops every rendered diagnostic whose code
// is not velo-directive, together with its indented related lines, and
// keeps everything else -analyze prints.
func directiveDiagnosticsOnly(out string) string {
	var b strings.Builder
	dropping := false
	for _, line := range strings.SplitAfter(out, "\n") {
		if dropping && strings.HasPrefix(line, "    ") {
			continue
		}
		dropping = false
		if m := diagLine.FindStringSubmatch(strings.TrimSuffix(line, "\n")); m != nil && m[1] != "velo-directive" {
			dropping = true
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestCLIVeloinstrAnalyzeGolden pins what veloinstr -analyze prints —
// the classification table, the annotation summary and the
// velo-directive diagnostics — with and without -intra, plus the vars
// and atomic_blocks of -analyze -json, over every example package and
// the annotation fixtures. Exit codes are not pinned. Regenerate with
//
//	go test -run CLIVeloinstrAnalyzeGolden -update-analyze-golden .
func TestCLIVeloinstrAnalyzeGolden(t *testing.T) {
	var b strings.Builder
	for _, dir := range analyzeGoldenDirs {
		for _, args := range [][]string{{"-analyze"}, {"-analyze", "-intra"}} {
			out, _ := runTool(t, "veloinstr", append(args, dir)...)
			fmt.Fprintf(&b, "== veloinstr %s %s\n%s", strings.Join(args, " "), dir, directiveDiagnosticsOnly(out))
		}
		out, _ := runTool(t, "veloinstr", "-analyze", "-json", dir)
		var rep struct {
			Vars         json.RawMessage `json:"vars"`
			AtomicBlocks json.RawMessage `json:"atomic_blocks"`
		}
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("%s: -analyze -json: %v\n%s", dir, err, out)
		}
		for _, field := range []struct {
			key string
			raw json.RawMessage
		}{{"vars", rep.Vars}, {"atomic_blocks", rep.AtomicBlocks}} {
			var ind bytes.Buffer
			if field.raw != nil {
				if err := json.Indent(&ind, field.raw, "", "  "); err != nil {
					t.Fatal(err)
				}
			}
			fmt.Fprintf(&b, "== veloinstr -analyze -json %s: %s\n%s\n", dir, field.key, ind.String())
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "analyze.golden")
	if *updateAnalyzeGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-analyze-golden)", err)
	}
	if got != string(want) {
		t.Errorf("veloinstr -analyze diverged from %s\n-- got --\n%s-- want --\n%s", golden, got, want)
	}
}
