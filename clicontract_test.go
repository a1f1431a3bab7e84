package repro_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cli"
)

// probe says how the contract test sets one mode-scoped flag and how it
// sees the flag honoured. In args, FILE names a fresh path in the run's
// directory.
type probe struct {
	args []string
	with []string // flags that make the effect visible, on both runs compared
	// effect is "file" (FILE exists afterwards), "output" (the output
	// differs from the run without the flag) or "" (not observable
	// without running the experiment twice, at seconds a run).
	effect string
}

// contractCmd is how the test drives one command of cli.Contract: a run
// is head, the mode's args, the probes' args, then tail.
type contractCmd struct {
	head, tail []string
	modes      map[string][]string
	probes     map[string]probe
}

func contractCmds(daemon string) map[string]contractCmd {
	abs := func(p string) string {
		a, err := filepath.Abs(p)
		if err != nil {
			panic(err)
		}
		return a
	}
	file := func(flag string) probe { return probe{args: []string{flag, "FILE"}, effect: "file"} }
	out := func(args ...string) probe { return probe{args: args, effect: "output"} }
	return map[string]contractCmd{
		"tracecheck": {
			tail: []string{abs("testdata/setadd.txt")},
			modes: map[string][]string{
				"local checking":         nil,
				"local checking with -q": {"-q"},
				"-server":                {"-server", daemon},
				"-server with -q":        {"-q", "-server", daemon},
			},
			probes: map[string]probe{
				"engine":      out("-engine", "aerodrome"),
				"forensics":   {args: []string{"-forensics"}, with: []string{"-obs-json"}, effect: "output"},
				"explain":     out("-explain"),
				"nofilter":    {args: []string{"-nofilter"}, with: []string{"-obs-json"}, effect: "output"},
				"dot":         file("-dot"),
				"trace-out":   file("-trace-out"),
				"obs-json":    out("-obs-json"),
				"profile":     {args: []string{"-profile", "mem", "-profile-out", "FILE"}, effect: "file"},
				"profile-out": {args: []string{"-profile-out", "FILE"}, with: []string{"-profile", "mem"}, effect: "file"},
				"key":         out("-key", "nosuch"),
			},
		},
		"velodrome": {
			head: []string{"-workload", "multiset"},
			modes: map[string][]string{
				"-backend velodrome": nil,
				"-backend atomizer":  {"-backend", "atomizer"},
				"-backend eraser":    {"-backend", "eraser"},
				"-backend empty":     {"-backend", "empty"},
			},
			probes: map[string]probe{
				"engine":    out("-engine", "aerodrome"),
				"nofilter":  {args: []string{"-nofilter"}, with: []string{"-stats"}, effect: "output"},
				"forensics": {args: []string{"-forensics"}, with: []string{"-stats", "-json"}, effect: "output"},
				"explain":   out("-explain"),
				"dot":       file("-dot"),
				"no-merge":  {args: []string{"-no-merge"}, with: []string{"-stats"}, effect: "output"},
				"trace-out": file("-trace-out"),
				"json":      out("-json"),
				"stats":     out("-stats"),
			},
		},
		"veloinstr": {
			tail: []string{abs("examples/instr/bankfixed")},
			modes: map[string][]string{
				"-analyze":     {"-analyze"},
				"rewriting":    nil,
				"-run":         {"-run"},
				"-run -server": {"-run", "-server", daemon},
			},
			probes: map[string]probe{
				"analyze":   out("-analyze"),
				"json":      out("-json"),
				"run":       out("-run"),
				"server":    out("-server", daemon),
				"o":         file("-o"),
				"noprune":   out("-noprune"),
				"trace":     file("-trace"),
				"trace-out": file("-trace-out"),
				"obs-json":  out("-obs-json"),
			},
		},
		"velobench": {
			head: []string{"-seeds", "1"},
			modes: map[string][]string{
				"-table 1":  {"-table", "1", "-timing-scale", "1"},
				"-table 2":  {"-table", "2"},
				"-smoke":    {"-smoke"},
				"-inject":   {"-inject"},
				"-coverage": {"-coverage"},
				"-ablate":   {"-ablate"},
				"-policies": {"-policies"},
			},
			probes: map[string]probe{
				"spec-filtered": {args: []string{"-spec-filtered"}},
				"timing-scale":  {args: []string{"-timing-scale", "1"}},
				"adversarial":   out("-adversarial"),
				"detail":        out("-detail"),
				"scale":         {args: []string{"-scale", "1"}},
			},
		},
	}
}

// flagNames lists the flags args set.
func flagNames(args []string) []string {
	var names []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") && len(a) > 1 {
			names = append(names, strings.TrimLeft(a, "-"))
		}
	}
	slices.Sort(names)
	return names
}

var refusal = regexp.MustCompile(`(?m)^(\w+): -(\S+) does not apply to `)

// contractRun is one invocation and what it must show.
type contractRun struct {
	cmd, mode string
	args      []string // FILE already resolved below dir
	dir       string
	refused   bool     // must be refused
	files     []string // must exist afterwards
	differs   []string // must print something other than this reference run
}

// TestCLIContract runs every (command, mode, mode-scoped flag) of
// cli.Contract, and every pair of flags a mode honours. A flag the mode
// honours must not be refused, must not crash the command and must show
// its effect: the file it names is written, or the output changes. Any
// other flag must exit 2 with "<cmd>: -<flag> does not apply to <mode>"
// and leave no file behind.
func TestCLIContract(t *testing.T) {
	bin := tools(t)
	addr, drain := startVelodromed(t)
	defer drain()
	cmds := contractCmds(addr)

	var runs []contractRun
	newRun := func(cmd, mode string, tc contractCmd, ps ...probe) contractRun {
		r := contractRun{cmd: cmd, mode: mode, dir: t.TempDir()}
		args := append(append([]string(nil), tc.head...), tc.modes[mode]...)
		for i, p := range ps {
			for _, a := range p.args {
				if a == "FILE" {
					a = filepath.Join(r.dir, fmt.Sprintf("out%d", i))
					if p.effect == "file" {
						r.files = append(r.files, a)
					}
				}
				args = append(args, a)
			}
		}
		r.args = append(args, tc.tail...)
		return r
	}
	for cmd, modes := range cli.Contract {
		tc, ok := cmds[cmd]
		if !ok {
			t.Fatalf("no way to drive %s", cmd)
		}
		scoped := map[string]bool{}
		for _, m := range modes {
			if _, ok := tc.modes[m.Name]; !ok {
				t.Fatalf("%s: no args select mode %q", cmd, m.Name)
			}
			for _, f := range m.Honours {
				scoped[f] = true
			}
		}
		// The modes' own flag sets: a probe that turns one mode's args
		// into another's selects that mode rather than being refused.
		selects := map[string]bool{}
		for _, m := range modes {
			selects[strings.Join(flagNames(tc.modes[m.Name]), " ")] = true
		}
		for _, m := range modes {
			// companions are a probe's with flags, or none when the mode
			// refuses one of them.
			companions := func(p probe) probe {
				for _, w := range flagNames(p.with) {
					if scoped[w] && !slices.Contains(m.Honours, w) {
						return probe{}
					}
				}
				return probe{args: p.with}
			}
			base := flagNames(tc.modes[m.Name])
			var honoured []string
			for f := range scoped {
				p, ok := tc.probes[f]
				if !ok {
					t.Fatalf("%s: no probe for -%s", cmd, f)
				}
				if slices.Contains(base, f) {
					continue
				}
				if selects[strings.Join(flagNames(append(tc.modes[m.Name], p.args...)), " ")] {
					continue
				}
				if !slices.Contains(m.Honours, f) {
					r := newRun(cmd, m.Name, tc, probe{args: p.args})
					r.refused = true
					runs = append(runs, r)
					continue
				}
				honoured = append(honoured, f)
				r := newRun(cmd, m.Name, tc, companions(p), p)
				if p.effect == "output" && (p.with == nil || companions(p).args != nil) {
					r.differs = newRun(cmd, m.Name, tc, companions(p)).args
				}
				runs = append(runs, r)
			}
			slices.Sort(honoured)
			for i, a := range honoured {
				for _, b := range honoured[i+1:] {
					pa, pb := tc.probes[a], tc.probes[b]
					na, nb := flagNames(append(pa.with, pa.args...)), flagNames(append(pb.with, pb.args...))
					if slices.ContainsFunc(na, func(n string) bool { return slices.Contains(nb, n) }) {
						continue
					}
					runs = append(runs, newRun(cmd, m.Name, tc, companions(pa), pa, companions(pb), pb))
				}
			}
		}
	}

	type result struct {
		out  string
		code int
	}
	run := func(cmd, dir string, args []string) result {
		c := exec.Command(filepath.Join(bin, cmd), args...)
		c.Dir = dir
		out, err := c.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Errorf("%s %v: %v", cmd, args, err)
		}
		return result{string(withoutTiming(out, dir)), code}
	}
	parallel(len(runs), func(i int) {
		r := runs[i]
		got := run(r.cmd, r.dir, r.args)
		name := fmt.Sprintf("%s %s (mode %s)", r.cmd, strings.Join(r.args, " "), r.mode)
		m := refusal.FindStringSubmatch(got.out)
		if r.refused {
			if got.code != 2 || m == nil || m[1] != r.cmd || !slices.Contains(flagNames(r.args), m[2]) {
				t.Errorf("%s: want a refusal, exit %d:\n%s", name, got.code, got.out)
			}
			if files, _ := os.ReadDir(r.dir); len(files) != 0 {
				t.Errorf("%s: a refused run wrote %s", name, files[0].Name())
			}
			return
		}
		for _, bad := range []string{"panic:", "flag provided but not defined"} {
			if m != nil || strings.Contains(got.out, bad) {
				t.Errorf("%s: exit %d:\n%s", name, got.code, got.out)
				return
			}
		}
		for _, f := range r.files {
			if _, err := os.Stat(f); err != nil {
				t.Errorf("%s: honoured, but wrote no %s", name, filepath.Base(f))
			}
		}
		if r.differs != nil {
			if ref := run(r.cmd, t.TempDir(), r.differs); ref.out == got.out && ref.code == got.code {
				t.Errorf("%s: honoured, but prints what %v prints:\n%s", name, r.differs, got.out)
			}
		}
	})
}

// TestCLIVelodromeOnlyFlags pins the contract's refusal of each
// velodrome-backend flag under -backend atomizer, one run per flag.
func TestCLIVelodromeOnlyFlags(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-dot", filepath.Join(dir, "c.dot")}, {"-explain"}, {"-forensics"}, {"-no-merge"},
		{"-nofilter"}, {"-engine", "optimized"}, {"-trace-out", filepath.Join(dir, "t.json")},
	} {
		all := append([]string{"-workload", "multiset", "-backend", "atomizer"}, args...)
		out, code := runTool(t, "velodrome", all...)
		if code != 2 || !strings.Contains(out, "velodrome: "+args[0]+" does not apply to -backend atomizer") {
			t.Errorf("%s under atomizer: exit %d:\n%s", args[0], code, out)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("refused runs wrote %d files", len(files))
	}
}

// TestCLIVeloinstrFlagRules pins which veloinstr flag combinations the
// contract accepts and which it refuses: -analyze takes only -json and
// -intra, and -trace, -trace-out, -obs-json and -server need -run.
func TestCLIVeloinstrFlagRules(t *testing.T) {
	dir := t.TempDir()
	pkg := "examples/instr/bankfixed"
	for _, tc := range []struct {
		args []string
		exit int
	}{
		{[]string{"-analyze"}, 0},
		{[]string{"-analyze", "-json", "-intra"}, 0},
		{[]string{"-o", filepath.Join(dir, "out"), "-noprune"}, 0},
		{[]string{"-analyze", "-run"}, 2},
		{[]string{"-analyze", "-o", filepath.Join(dir, "analyze-out")}, 2},
		{[]string{"-analyze", "-noprune"}, 2},
		{[]string{"-analyze", "-trace-out", filepath.Join(dir, "spans.json")}, 2},
		{[]string{"-analyze", "-server", "127.0.0.1:1"}, 2},
		{[]string{"-trace", filepath.Join(dir, "trace.txt")}, 2},
		{[]string{"-obs-json"}, 2},
		{[]string{"-trace-out", filepath.Join(dir, "spans.json")}, 2},
	} {
		out, code := runTool(t, "veloinstr", append(tc.args, pkg)...)
		if code != tc.exit {
			t.Errorf("veloinstr %v: exit %d, want %d:\n%s", tc.args, code, tc.exit, out)
		}
		if tc.exit == 2 && !refusal.MatchString(out) {
			t.Errorf("veloinstr %v: refused without the shared message:\n%s", tc.args, out)
		}
	}
	for _, name := range []string{"analyze-out", "trace.txt", "spans.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("a refused invocation wrote %s", name)
		}
	}
}

// parallel calls do(0) … do(n-1) on GOMAXPROCS goroutines.
func parallel(n int, do func(int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// maxFlags is how many flags the five commands declare together. A
// change may lower it; raising it needs a reason the contract cannot
// absorb.
const maxFlags = 85

func TestCLIFlagCount(t *testing.T) {
	bin := tools(t)
	total := 0
	for _, cmd := range []string{"velodrome", "velobench", "tracecheck", "veloinstr", "velodromed"} {
		out, _ := exec.Command(filepath.Join(bin, cmd), "-h").CombinedOutput()
		total += len(regexp.MustCompile(`(?m)^  -`).FindAll(out, -1))
	}
	if total > maxFlags {
		t.Errorf("the commands declare %d flags, more than %d", total, maxFlags)
	}
}
