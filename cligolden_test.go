package repro_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// cliGolden pins what the commands print over the grid refactors have
// to leave alone: one line per invocation with its exit status and a
// digest of its stdout and of its stderr (and of the -dot file it
// wrote), after withoutTiming.
const cliGolden = "testdata/cli.golden"

var updateCLIGolden = flag.Bool("update-cli-golden", false, "rewrite "+cliGolden)

// timingField matches a JSON member whose value is a duration — the
// stage clocks (velodrome_stage_ns_total{stage="…"}) and any *_ns
// field — the only bytes of the grid's output that differ from run to
// run. sessionField matches a daemon verdict's session id and time.
var (
	timingField  = regexp.MustCompile(`"[a-z_]*_ns(_total)?(\{[^}]*\})?":[0-9]+`)
	sessionField = regexp.MustCompile(`session s[0-9]+ in [0-9]+ms`)
)

// withoutTiming is the CLI tests' one filter: it drops the timing
// fields, and the session id and time of a -server verdict, and names
// the run's temporary directory $TMP.
func withoutTiming(out []byte, tmp string) []byte {
	out = timingField.ReplaceAll(out, nil)
	out = sessionField.ReplaceAll(out, []byte("session"))
	return []byte(strings.ReplaceAll(string(out), tmp, "$TMP"))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// cliGrid lists the golden's invocations: velodrome's renderings on
// four workloads, five seeds, both schedulers and every engine;
// tracecheck plain and with -explain over the corpus; and the velobench
// experiments that run in well under a second, each on its own.
// "DOT" stands for a fresh -dot file.
func cliGrid(t *testing.T) [][]string {
	var grid [][]string
	renderings := [][]string{{"-stats"}, {"-json"}, {"-stats", "-json"}, {"-explain"}, {"-dot", "DOT"}}
	for _, w := range []string{"multiset", "jigsaw", "webl", "elevator"} {
		for seed := 1; seed <= 5; seed++ {
			for _, adv := range [][]string{nil, {"-adversarial"}} {
				for _, info := range core.Engines() {
					for _, r := range renderings {
						args := []string{"velodrome", "-workload", w, "-seed", fmt.Sprint(seed), "-engine", info.Name}
						args = append(append(args, adv...), r...)
						grid = append(grid, args)
					}
				}
			}
		}
	}
	traces, err := filepath.Glob("testdata/*.txt")
	if err != nil || len(traces) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	for _, tr := range traces {
		for _, info := range core.Engines() {
			grid = append(grid,
				[]string{"tracecheck", "-engine", info.Name, tr},
				[]string{"tracecheck", "-engine", info.Name, "-explain", tr})
		}
	}
	for _, exp := range [][]string{{"-table", "2"}, {"-policies"}, {"-inject"}} {
		grid = append(grid, append([]string{"velobench"}, exp...))
	}
	return grid
}

// cliGoldenLine runs one invocation and renders its golden line.
func cliGoldenLine(t *testing.T, bin string, args []string) string {
	tmp := t.TempDir()
	argv := append([]string(nil), args[1:]...)
	dotPath := ""
	for i, a := range argv {
		if a == "DOT" {
			dotPath = filepath.Join(tmp, "g.dot")
			argv[i] = dotPath
		}
	}
	cmd := exec.Command(filepath.Join(bin, args[0]), argv...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Errorf("%v: %v", args, err)
	}
	line := fmt.Sprintf("%s = exit=%d out=%s err=%s", strings.Join(args, " "), code,
		digest(withoutTiming([]byte(stdout.String()), tmp)), digest(withoutTiming([]byte(stderr.String()), tmp)))
	if dotPath != "" {
		data, err := os.ReadFile(dotPath)
		if err != nil {
			line += " dot=none"
		} else {
			line += " dot=" + digest(data)
		}
	}
	return line
}

// TestCLIGolden compares every invocation of cliGrid with
// testdata/cli.golden. A change that means to alter what a command
// prints regenerates it, and says why:
//
//	go test -run CLIGolden -update-cli-golden .
func TestCLIGolden(t *testing.T) {
	bin := tools(t)
	grid := cliGrid(t)
	lines := make([]string, len(grid))
	parallel(len(grid), func(i int) { lines[i] = cliGoldenLine(t, bin, grid[i]) })
	got := strings.Join(lines, "\n") + "\n"
	if *updateCLIGolden {
		if err := os.WriteFile(cliGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cliGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-cli-golden)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%s has %d lines, the grid %d", cliGolden, len(wantLines), len(lines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, lines[i], wantLines[i])
		}
	}
}
