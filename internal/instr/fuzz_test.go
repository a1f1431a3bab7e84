package instr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/analysis"
)

// FuzzInstrument asserts the rewriter's core contract on arbitrary
// inputs: if a program parses and type-checks, its instrumented form
// (sources plus shim) must also parse and type-check. Imports are
// restricted to a small whitelist so the source importer doesn't chase
// arbitrary packages.
func FuzzInstrument(f *testing.F) {
	f.Add(classifySrc)
	f.Add(`package main

var x int

//velo:atomic
func bump() { x++ }

func main() {
	go bump()
	bump()
}
`)
	f.Add(`package main

import "sync"

var mu sync.Mutex
var m = map[string]int{}

func main() {
	var arr [4]int
	i := 1
	mu.Lock()
	m["k"] = arr[i]
	mu.Unlock()
	for j := 0; j < 3; j++ {
		arr[j] = j
	}
	go func(n int) { arr[0] = n }(2)
	switch {
	case arr[0] > 0:
		i++
	default:
	}
	_ = i
}
`)
	f.Add(`package main

type pair struct{ a, b int }

var p pair
var q *pair = &p

func main() {
	p.a = 1
	q.b = p.a
	go func() { q.a++ }()
}
`)
	// Tid threading: signatures the rewriter extends (unnamed, variadic
	// and generic parameters, recursion), references that must keep a
	// function's signature (a value, an explicit instantiation, a name in
	// a package-level initializer, a send-statement channel expression),
	// and every way of reaching a mutex (promoted, indexed, through a
	// pointer the rewriter cannot trace, sync.Locker, a method value).
	f.Add(`package main

import "sync"

type guard struct{ sync.Mutex }

type nested struct{ g guard }

var (
	mu   sync.Mutex
	mus  [2]sync.Mutex
	byID = map[string]*sync.Mutex{"a": &mu}
	g    guard
	n    nested
	wg   sync.WaitGroup
	x    int
)

var hook = kept

func kept(int) { x++ }

func unnamed(int, string) { x++ }

func variadic(vs ...int) { x += len(vs) }

func generic[T any](v T) T { x++; return v }

func pinned[T any](v T) T { x++; return v }

func recurse(n int) {
	if n > 0 {
		recurse(n - 1)
	}
	x++
}

func pick(f func(int)) int { f(0); return 0 }

func sent(int) { x++ }

func locks(l sync.Locker, p *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	mus[1].Lock()
	mus[1].Unlock()
	byID["a"].Lock()
	byID["a"].Unlock()
	g.Lock()
	g.Unlock()
	n.g.Lock()
	n.g.Unlock()
	(&mu).Lock()
	(*p).Unlock()
	p.Lock()
	q := &mu
	q.Unlock()
	l.Lock()
	l.Unlock()
	unlock := mu.Unlock
	mu.Lock()
	unlock()
	for i := range mus {
		m := &mus[i]
		m.Lock()
		m.Unlock()
	}
}

func main() {
	chans := []chan int{make(chan int, 1)}
	wg.Add(2)
	go func() {
		defer wg.Done()
		unnamed(1, "a")
		variadic(1, 2)
		variadic()
		_ = generic(1)
		_ = pinned[int](2)
		recurse(2)
	}()
	go locks(&mu, &mu)
	chans[pick(sent)] <- 1
	wg.Wait()
	hook(1)
	go wg.Wait()
	defer func() { x++ }()
}
`)
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		parsed, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip()
		}
		for _, imp := range parsed.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != "sync" {
				t.Skip()
			}
		}
		// The shim occupies the _velo / _veloMutex / _veloWaitGroup
		// namespace; programs colliding with it are out of contract.
		collision := false
		ast.Inspect(parsed, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && len(id.Name) >= 5 && id.Name[:5] == "_velo" {
				collision = true
			}
			return !collision
		})
		if collision {
			t.Skip()
		}
		p, err := LoadSource("fuzz.go", []byte(src))
		if err != nil {
			t.Skip()
		}
		dirs := ScanDirectives(p)
		if len(dirs.Diags) > 0 {
			t.Skip()
		}
		a := Analyze(p, dirs)
		for _, prune := range []bool{true, false} {
			pp, err := LoadSource("fuzz.go", []byte(src))
			if err != nil {
				t.Skip()
			}
			dd := ScanDirectives(pp)
			aa := Analyze(pp, dd)
			out, err := Rewrite(pp, dd, aa, RewriteOptions{Prune: prune})
			if err != nil {
				t.Fatalf("rewrite (prune=%v): %v", prune, err)
			}
			reparseFuzz(t, out)
		}
		_ = a
	})
}

func reparseFuzz(t *testing.T, out *Output) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for name, src := range out.Files {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatalf("instrumented %s does not parse: %v\n%s", name, err, src)
		}
		files = append(files, f)
		names = append(names, name)
	}
	sf, err := parser.ParseFile(fset, ShimFileName, out.Shim, 0)
	if err != nil {
		t.Fatalf("shim does not parse: %v", err)
	}
	files = append(files, sf)
	names = append(names, ShimFileName)
	if _, err := analysis.Check(".", fset, files, names); err != nil {
		t.Fatalf("instrumented output does not type-check: %v\n%s", err, out.Files["fuzz.go"])
	}
}
