package instr

import (
	"strings"
	"testing"
)

func varByName(t *testing.T, a *Analysis, name string) *VarInfo {
	t.Helper()
	for _, v := range a.Vars {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("variable %s not classified (have %d vars)", name, len(a.Vars))
	return nil
}

// TestDuplicateDirective covers the duplicate-annotation error.
func TestDuplicateDirective(t *testing.T) {
	_, dirs, _ := load(t, `package main

var n int

//velo:atomic first
//velo:atomic second
func f() { n++ }

func main() { f() }
`)
	found := false
	for _, d := range dirs.Diags {
		if d.Code == "velo-directive" && d.Severity == "error" && strings.Contains(d.Message, "duplicate") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing duplicate-directive error: %v", dirs.Diags)
	}
}

// TestDisjointLocksetsStayShared: a variable accessed concurrently
// under two different mutexes has no common lock, so it stays shared.
func TestDisjointLocksetsStayShared(t *testing.T) {
	_, _, facts := load(t, `package main

import "sync"

var muA, muB sync.Mutex

var n int

var wg sync.WaitGroup

func a() { muA.Lock(); n++; muA.Unlock() }

func b() { muB.Lock(); n++; muB.Unlock() }

func main() {
	wg.Add(2)
	go func() { defer wg.Done(); a() }()
	go func() { defer wg.Done(); b() }()
	wg.Wait()
}
`)
	if v := varByName(t, facts, "n"); v.Class != ClassShared {
		t.Errorf("n must be shared under disjoint locksets, got %v", v.Class)
	}
}

// srcInterproc has a helper that mutates a package variable without
// locking; every call site holds mu, so only the interprocedural
// entry-lock fixpoint can prove the variable protected.
const srcInterproc = `package main

import "sync"

var mu sync.Mutex

var n int

var wg sync.WaitGroup

func bump() { n++ }

func worker() {
	mu.Lock()
	bump()
	mu.Unlock()
}

func main() {
	wg.Add(1)
	go func() { defer wg.Done(); worker() }()
	mu.Lock()
	bump()
	mu.Unlock()
	wg.Wait()
}
`

// TestInterprocFixpoint is the positive case: the entry-lock fixpoint
// strictly improves on the syntactic analysis, and marks the variable
// it alone proved protected.
func TestInterprocFixpoint(t *testing.T) {
	p, dirs, facts := load(t, srcInterproc)
	v := varByName(t, facts, "n")
	if v.Class != ClassLockProtected || v.Lock != "mu" || !v.Interproc {
		t.Errorf("n = {class: %v, lock: %q, interproc: %v}, want interprocedurally mu-protected", v.Class, v.Lock, v.Interproc)
	}

	// The same package classified intraprocedurally degrades to shared.
	facts = AnalyzeOpts(p, dirs, Options{Intraprocedural: true})
	if v := varByName(t, facts, "n"); v.Class != ClassShared || v.Interproc {
		t.Errorf("intra: n = {class: %v, interproc: %v}, want plain shared", v.Class, v.Interproc)
	}
}

// TestInterprocSoundness pins the conservative root set: helpers that
// are go-launched, referenced as values, or ever called without the
// lock must NOT inherit entry locks.
func TestInterprocSoundness(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"go-launched helper", `package main

import "sync"

var mu sync.Mutex

var n int

var wg sync.WaitGroup

func bump() { n++ }

func main() {
	wg.Add(1)
	go func() { defer wg.Done(); mu.Lock(); bump(); mu.Unlock() }()
	go bump()
	wg.Wait()
}
`},
		{"helper used as value", `package main

import "sync"

var mu sync.Mutex

var n int

var wg sync.WaitGroup

func bump() { n++ }

func main() {
	h := bump
	wg.Add(1)
	go func() { defer wg.Done(); mu.Lock(); bump(); mu.Unlock() }()
	h()
	wg.Wait()
}
`},
		{"one unlocked call site", `package main

import "sync"

var mu sync.Mutex

var n int

var wg sync.WaitGroup

func bump() { n++ }

func main() {
	wg.Add(1)
	go func() { defer wg.Done(); mu.Lock(); bump(); mu.Unlock() }()
	bump()
	wg.Wait()
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, facts := load(t, tc.src)
			if v := varByName(t, facts, "n"); v.Class != ClassShared {
				t.Errorf("n classified %v; the fixpoint must not trust this call graph", v.Class)
			}
		})
	}
}

// TestDiagnosticRender pins the rendered shape -analyze prints.
func TestDiagnosticRender(t *testing.T) {
	d := Diagnostic{Pos: "main.go:3:1", Severity: "error", Code: "velo-directive", Message: "boom"}
	if want := "main.go:3:1: error: boom [velo-directive]"; d.Render() != want {
		t.Errorf("Render:\n got %q\nwant %q", d.Render(), want)
	}
	if d.String() != "main.go:3:1: boom" {
		t.Errorf("String: %q", d.String())
	}
}
