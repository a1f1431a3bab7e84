package instr

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes files (slash-separated names relative to the root)
// into a fresh temporary directory and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// offline keeps go list inside the modules these tests write, which
// require nothing: no proxy, no other toolchain, no workspace.
func offline(t *testing.T) {
	t.Setenv("GOPROXY", "off")
	t.Setenv("GOTOOLCHAIN", "local")
	t.Setenv("GOWORK", "off")
	t.Setenv("GOFLAGS", "")
}

// TestLoadModuleSibling loads a main package that imports another
// package of its own module: go list compiles the sibling and reports
// its export data alongside the standard library's.
func TestLoadModuleSibling(t *testing.T) {
	offline(t)
	root := writeTree(t, map[string]string{
		"go.mod": "module velotmp\n\ngo 1.21\n",
		"counter/counter.go": `package counter

type Counter struct{ N int }

func New() *Counter { return &Counter{} }
`,
		"main.go": `package main

import (
	"fmt"

	"velotmp/counter"
)

var c = counter.New()

func main() { c.N++; fmt.Println(c.N) }
`,
	})
	p, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Pkg.Scope().Lookup("c")
	if c == nil {
		t.Fatal("package-level c not defined")
	}
	if got := c.Type().String(); got != "*velotmp/counter.Counter" {
		t.Errorf("c has type %s, want *velotmp/counter.Counter", got)
	}
	named := c.Type().(*types.Pointer).Elem().(*types.Named)
	if f, _, _ := types.LookupFieldOrMethod(named, true, named.Obj().Pkg(), "N"); f == nil {
		t.Error("field N of the imported Counter does not resolve")
	}
}

// TestForeignMutexProvesNothing: a mutex whose declaration is in a
// sibling package keeps its sync.Mutex type through the rewrite, so its
// Lock and Unlock emit no event. They must not prove n lock-protected,
// and are listed as unsupported synchronization.
func TestForeignMutexProvesNothing(t *testing.T) {
	offline(t)
	root := writeTree(t, map[string]string{
		"go.mod": "module velotmp\n\ngo 1.21\n",
		"counter/counter.go": `package counter

import "sync"

type C struct{ Mu sync.Mutex }
`,
		"main.go": `package main

import (
	"sync"

	"velotmp/counter"
)

var c counter.C

var n int

//velo:atomic
func inc() {
	c.Mu.Lock()
	n++
	c.Mu.Unlock()
}

func main() {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); inc() }()
	}
	wg.Wait()
}
`,
	})
	p, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(p, ScanDirectives(p))
	if v := varByName(t, a, "n"); v.Class != ClassShared {
		t.Errorf("n = {class: %v, lock: %q}, want shared: c.Mu's operations reach no checker", v.Class, v.Lock)
	}
	var lines []string
	for _, u := range a.Unsupported {
		if strings.Contains(u, "c.Mu") {
			lines = append(lines, u)
		}
	}
	if len(lines) != 2 {
		t.Errorf("unsupported %q, want c.Mu's Lock and Unlock", a.Unsupported)
	}
}

// TestForeignMutexNotCounted: a *sync.Mutex that a sibling package hands
// out stays a plain mutex through the rewrite, so the report must not
// count it as rewritten.
func TestForeignMutexNotCounted(t *testing.T) {
	offline(t)
	root := writeTree(t, map[string]string{
		"go.mod": "module velotmp\n\ngo 1.21\n",
		"counter/counter.go": `package counter

import "sync"

var mu sync.Mutex

func Get() *sync.Mutex { return &mu }
`,
		"main.go": `package main

import "velotmp/counter"

var pm = counter.Get()

func main() { pm.Lock(); pm.Unlock() }
`,
	})
	p, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if a := Analyze(p, ScanDirectives(p)); a.Mutexes != 0 || a.WaitGroups != 0 {
		t.Errorf("counted %d mutexes, %d waitgroups rewritten, want 0: pm stays a sync.Mutex", a.Mutexes, a.WaitGroups)
	}
}

// TestLoadMissingImport: an import nothing provides is an error of the
// package that names the directory, the import and what go list said.
func TestLoadMissingImport(t *testing.T) {
	offline(t)
	root := writeTree(t, map[string]string{
		"go.mod":  "module velotmp\n\ngo 1.21\n",
		"main.go": "package main\n\nimport \"velotmp/nosuch\"\n\nfunc main() { nosuch.F() }\n",
	})
	_, err := Load(root)
	if err == nil {
		t.Fatal("loading a package with a missing import succeeded")
	}
	for _, want := range []string{root, "velotmp/nosuch", "go list", "is not in std"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q: %v", want, err)
		}
	}
}

// TestLoadNeedsGoCommand: without a go command on PATH a package with
// imports cannot load, and the error says why.
func TestLoadNeedsGoCommand(t *testing.T) {
	t.Setenv("PATH", t.TempDir())
	_, err := LoadSource("main.go", []byte("package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println() }\n"))
	if err == nil || !strings.Contains(err.Error(), "needs the go command") {
		t.Fatalf("want an error naming the go command, got %v", err)
	}
}

// TestLoadWithoutImports: unsafe is the importer's own, so a package
// importing only unsafe, or nothing, loads without running go list at
// all (the empty PATH shows it).
func TestLoadWithoutImports(t *testing.T) {
	t.Setenv("PATH", t.TempDir())
	for name, src := range map[string]string{
		"unsafe": "package main\n\nimport \"unsafe\"\n\nvar n = unsafe.Sizeof(int64(0))\n\nfunc main() { _ = n }\n",
		"none":   "package main\n\nvar x int\n\nfunc main() { x++ }\n",
	} {
		p, err := LoadSource("main.go", []byte(src))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Pkg.Scope().Lookup("main") == nil {
			t.Errorf("%s: main not defined", name)
		}
	}
}
