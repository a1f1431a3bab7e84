package instr

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The cost of an event is checked by structure, not by a timer: what the
// event path may not contain is known exactly, and a parse finds it on
// any host.

// shimFuncs parses the shim and indexes its functions and methods by name.
func shimFuncs(t *testing.T) (*ast.File, map[string]*ast.FuncDecl) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), ShimFileName, ShimSource("main"), 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			funcs[fd.Name.Name] = fd
		}
	}
	return f, funcs
}

// usesPackage reports whether n selects into the package named pkg.
func usesPackage(n ast.Node, pkg string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestShimEventPathStaysHot walks the shim from every entry point the
// rewriter puts on the event path through everything those call, and
// requires that none of it formats (fmt), looks a goroutine id up
// (runtime.Stack, via _velo_gid or _velo_tid) or defers.
func TestShimEventPathStaysHot(t *testing.T) {
	_, funcs := shimFuncs(t)
	entry := []string{
		"_velo_rd", "_velo_wr", "_velo_begin", "_velo_end", "_velo_prune", "_velo_fork",
		"_velo_lock", "_velo_unlock", "_velo_wgdone", "_velo_wait",
	}
	onPath := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		fd := funcs[name]
		if fd == nil || onPath[name] {
			return
		}
		onPath[name] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					visit(fun.Name)
				case *ast.SelectorExpr:
					// The shim's own methods on the path are _velo_ ones;
					// Lock on _velo.mu is sync's, not _veloMutex's.
					if strings.HasPrefix(fun.Sel.Name, "_velo") {
						visit(fun.Sel.Name)
					}
				}
			}
			return true
		})
	}
	for _, name := range entry {
		if funcs[name] == nil {
			t.Errorf("the shim has no %s", name)
		}
		visit(name)
	}
	if !onPath["_velo_emit"] {
		t.Error("the emit helper is not on the event path: this test is walking the wrong functions")
	}
	for name := range onPath {
		if name == "_velo_gid" || name == "_velo_tid" || name == "_velo_self" {
			t.Errorf("the event path reaches %s: a goroutine-id lookup per event", name)
		}
		body := funcs[name].Body
		if usesPackage(body, "fmt") {
			t.Errorf("%s formats with fmt", name)
		}
		if usesPackage(body, "runtime") {
			t.Errorf("%s calls into runtime", name)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.DeferStmt); ok {
				t.Errorf("%s defers", name)
			}
			return true
		})
	}
}

// TestShimContract pins what the tid-threading change replaced rather
// than forked, and the shim's standing contract: one standard-library
// file, no unsafe, fmt for the trailer and the fatal message only,
// reflect for variable addresses only.
func TestShimContract(t *testing.T) {
	f, funcs := shimFuncs(t)
	if formatted, err := format.Source(ShimSource("main")); err != nil || !bytes.Equal(formatted, ShimSource("main")) {
		t.Errorf("the shim is not gofmt-clean (err=%v)", err)
	}
	for _, gone := range []string{"_velo_init", "_velo_tidLocked", "_velo_addr", "_velo_emitLocked", "_velo_lockID"} {
		if funcs[gone] != nil {
			t.Errorf("%s is back: the per-event-lookup path was to be replaced, not kept beside the new one", gone)
		}
	}
	for _, name := range []string{"_velo_rd", "_velo_wr", "_velo_begin", "_velo_end", "_velo_fork", "_velo_lock", "_velo_unlock", "_velo_wgdone", "_velo_wait"} {
		fd := funcs[name]
		if fd == nil {
			continue // reported by TestShimEventPathStaysHot
		}
		params := fd.Type.Params.List
		if len(params) == 0 || len(params[0].Names) != 1 || params[0].Names[0].Name != "t" {
			t.Errorf("%s does not take the tid as its first argument", name)
		}
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "encoding/binary", "fmt", "os", "reflect", "runtime", "strconv", "strings", "sync", "sync/atomic":
		default:
			t.Errorf("the shim imports %s", path)
		}
	}
	for name, fd := range funcs {
		if usesPackage(fd.Body, "fmt") && name != "_velo_done" {
			t.Errorf("%s uses fmt; only _velo_done (trailer, fatal message) may", name)
		}
		if usesPackage(fd.Body, "reflect") && name != "_velo_access" {
			t.Errorf("%s uses reflect; only _velo_access (variable addresses) may", name)
		}
		if usesPackage(fd.Body, "runtime") && name != "_velo_gid" {
			t.Errorf("%s uses runtime; only _velo_gid may", name)
		}
		// One encoder: the text one formatted ids with strconv, which is
		// left for parsing VELO_TRACE only.
		if usesPackage(fd.Body, "strconv") && name != "_velo_open" {
			t.Errorf("%s uses strconv; the text emit path was to be replaced, not kept", name)
		}
	}
}

// TestHotloopThreaded rewrites the benchmark's target and requires that
// its loop — poll, update and worker, all reachable by direct calls from
// a go statement — receives its tid as a parameter and never looks one up.
func TestHotloopThreaded(t *testing.T) {
	for _, prune := range []bool{true, false} {
		out := instrumentDir(t, filepath.Join("..", "..", "benchmark", "targets", "hotloop"), RewriteOptions{Prune: prune})
		f, err := parser.ParseFile(token.NewFileSet(), "main.go", out.Files["main.go"], 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch fd.Name.Name {
			case "poll", "update", "worker", "report":
			default:
				continue
			}
			seen++
			first := fd.Type.Params.List[0]
			if len(first.Names) != 1 || first.Names[0].Name != "_velo_t" {
				t.Errorf("prune=%v: %s is not threaded: first parameter %v", prune, fd.Name.Name, first.Names)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					switch id.Name {
					case "_velo_self", "_velo_tid", "_velo_gid":
						t.Errorf("prune=%v: %s looks its tid up (%s)", prune, fd.Name.Name, id.Name)
					case "Lock", "Unlock", "Done", "Wait":
						t.Errorf("prune=%v: %s calls the plain %s, which looks the tid up", prune, fd.Name.Name, id.Name)
					}
				}
				return true
			})
		}
		if seen != 4 {
			t.Errorf("prune=%v: found %d of poll, update, worker, report", prune, seen)
		}
	}
}
