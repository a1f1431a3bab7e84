package instr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// load type-checks src and runs the full front half of the pipeline.
func load(t *testing.T, src string) (*Package, *Directives, *Analysis) {
	t.Helper()
	p, err := LoadSource("main.go", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	dirs := ScanDirectives(p)
	return p, dirs, Analyze(p, dirs)
}

const classifySrc = `package main

import "sync"

var mu sync.Mutex

var shared int    // read by a goroutine, written by main: no common lock
var guarded int   // always under mu
var mainOnly int  // never reachable from a goroutine

func main() {
	mainOnly = 1
	plain := 2        // plain stack local: not even a candidate
	shared = plain
	mu.Lock()
	guarded++
	mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = shared
		mu.Lock()
		guarded = mainOnly0()
		mu.Unlock()
	}()
	wg.Wait()
}

func mainOnly0() int { return mainOnly * 0 }
`

func TestClassify(t *testing.T) {
	_, _, a := load(t, classifySrc)
	want := map[string]Class{
		"shared":  ClassShared,
		"guarded": ClassLockProtected,
	}
	for name, class := range want {
		if got, ok := a.VarClass(name); !ok || got != class {
			t.Errorf("%s: got %v, want %v", name, got, class)
		}
	}
	// mainOnly is read from the goroutine via mainOnly0, so it must NOT
	// be thread-local; the call-graph fixpoint has to see through the
	// call.
	if got, ok := a.VarClass("mainOnly"); !ok || got != ClassShared {
		t.Errorf("mainOnly: got %v, want shared (reached via call from goroutine)", got)
	}
	for _, v := range a.Vars {
		if v.Name == "plain" {
			t.Error("plain stack local must not be a candidate")
		}
	}
	if a.Mutexes != 1 || a.WaitGroups != 1 {
		t.Errorf("sync decl counts: %d mutexes, %d waitgroups", a.Mutexes, a.WaitGroups)
	}
}

func TestClassifyThreadLocal(t *testing.T) {
	_, _, a := load(t, `package main

var mainOnly int

func main() {
	mainOnly = 1
	go spin()
	if mainOnly > 0 {
		mainOnly--
	}
}

func spin() {}
`)
	if got, ok := a.VarClass("mainOnly"); !ok || got != ClassThreadLocal {
		t.Errorf("mainOnly: got %v, want thread-local", got)
	}
}

func TestDirectives(t *testing.T) {
	p, err := LoadSource("main.go", []byte(`package main

//velo:atomic
func plain() {}

//velo:atomic transfer
func labeled() {}

type bank struct{}

//velo:atomic
func (b *bank) withdraw() {}

func main() { plain(); labeled(); new(bank).withdraw() }
`))
	if err != nil {
		t.Fatal(err)
	}
	dirs := ScanDirectives(p)
	if len(dirs.Diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", dirs.Diags)
	}
	got := map[string]bool{}
	for _, label := range dirs.Atomic {
		got[label] = true
	}
	for _, want := range []string{"plain", "transfer", "bank.withdraw"} {
		if !got[want] {
			t.Errorf("missing atomic label %q (have %v)", want, got)
		}
	}
}

func TestDirectiveDiagnostics(t *testing.T) {
	p, err := LoadSource("main.go", []byte(`package main

//velo:atomical
func oops() {}

//velo:atomic bad label
func worse() {}

var x int //velo:atomic

func main() {
	//velo:atomic
	oops()
	worse()
	_ = x
}
`))
	if err != nil {
		t.Fatal(err)
	}
	dirs := ScanDirectives(p)
	if len(dirs.Diags) != 4 {
		t.Fatalf("want 4 diagnostics, got %d: %v", len(dirs.Diags), dirs.Diags)
	}
	all := make([]string, len(dirs.Diags))
	for i, d := range dirs.Diags {
		all[i] = d.String()
	}
	joined := strings.Join(all, "\n")
	for _, want := range []string{
		"unknown directive //velo:atomical",
		"malformed //velo:atomic label",
		"must be in the doc comment of a function declaration",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
}

// reparse type-checks instrumented output together with its shim,
// which is the rewriter's core contract: the output is valid Go.
func reparse(t *testing.T, out *Output) *Package {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for name, src := range out.Files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("instrumented %s does not parse: %v\n%s", name, err, src)
		}
		files = append(files, f)
		names = append(names, name)
	}
	f, err := parser.ParseFile(fset, ShimFileName, out.Shim, parser.ParseComments)
	if err != nil {
		t.Fatalf("shim does not parse: %v", err)
	}
	files = append(files, f)
	names = append(names, ShimFileName)
	p, err := analysis.Check(".", fset, files, names)
	if err != nil {
		t.Fatalf("instrumented output does not type-check: %v", err)
	}
	return p
}

func TestRewriteTypechecks(t *testing.T) {
	p, dirs, a := load(t, classifySrc)
	out, err := Rewrite(p, dirs, a, RewriteOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	reparse(t, out)
	src := string(out.Files["main.go"])
	for _, want := range []string{"defer _velo_done()", "_velo_fork(", "defer _velo_exit(_velo_child(_velo_t))", "_veloMutex", "_veloWaitGroup", "_velo_prune("} {
		if !strings.Contains(src, want) {
			t.Errorf("instrumented source missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, `"sync"`) {
		t.Errorf("sync import should be rewritten away:\n%s", src)
	}
	if out.SitesPruned == 0 || out.SitesEmitted == 0 {
		t.Errorf("want both pruned and emitted sites, got %d/%d", out.SitesEmitted, out.SitesPruned)
	}
}

func TestRewriteNoPrune(t *testing.T) {
	p, dirs, a := load(t, classifySrc)
	out, err := Rewrite(p, dirs, a, RewriteOptions{Prune: false})
	if err != nil {
		t.Fatal(err)
	}
	reparse(t, out)
	src := string(out.Files["main.go"])
	if strings.Contains(src, "_velo_prune(") {
		t.Errorf("-noprune output must not contain prune counters:\n%s", src)
	}
	if out.SitesPruned != 0 {
		t.Errorf("noprune pruned count = %d", out.SitesPruned)
	}
	// Every candidate access now emits.
	pp, dd, aa := load(t, classifySrc)
	pruned, err := Rewrite(pp, dd, aa, RewriteOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.SitesEmitted != pruned.SitesEmitted+pruned.SitesPruned {
		t.Errorf("noprune emits %d sites, pruned run has %d+%d",
			out.SitesEmitted, pruned.SitesEmitted, pruned.SitesPruned)
	}
}

func TestRewriteAtomicBeginEnd(t *testing.T) {
	p, dirs, a := load(t, `package main

var x int

//velo:atomic update
func update() {
	x++
}

func main() {
	go update()
	update()
}
`)
	out, err := Rewrite(p, dirs, a, RewriteOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	reparse(t, out)
	src := string(out.Files["main.go"])
	if !strings.Contains(src, `_velo_begin(_velo_t, "update")`) || !strings.Contains(src, "defer _velo_end(_velo_t)") {
		t.Errorf("missing begin/end injection:\n%s", src)
	}
}

func TestReport(t *testing.T) {
	p, dirs, a := load(t, classifySrc)
	rep := NewReport(p, dirs, a)
	if rep.Pruned() == 0 {
		t.Error("classifySrc must have pruned variables")
	}
	var b strings.Builder
	rep.WriteTable(&b)
	for _, want := range []string{"candidate variables", "lock-protected", "held: mu"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("table missing %q:\n%s", want, b.String())
		}
	}
}
