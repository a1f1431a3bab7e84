package instr

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is a parsed and type-checked target package.
type Package struct {
	Dir   string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File // sorted by file name
	Names []string    // base names, parallel to Files
	Pkg   *types.Package
	Info  *types.Info
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// Load parses and type-checks every non-test .go file in dir.
func Load(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("instr: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return Check(dir, fset, files, names)
}

// LoadSource parses and type-checks a single in-memory file (tests and
// the fuzz target).
func LoadSource(name string, src []byte) (*Package, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return Check(".", fset, []*ast.File{f}, []string{name})
}

// Check type-checks already-parsed files into a Package: the one place a
// types.Config is built. Imports resolve from compiler export data,
// located by running go list in dir (see exportImporter).
func Check(dir string, fset *token.FileSet, files []*ast.File, names []string) (*Package, error) {
	imp, err := exportImporter(dir, fset, files)
	if err != nil {
		return nil, fmt.Errorf("instr: type-checking %s: %w", dir, err)
	}
	conf := types.Config{Importer: imp}
	info := newInfo()
	pkgName := files[0].Name.Name
	pkg, err := conf.Check(pkgName, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("instr: type-checking %s: %w", dir, err)
	}
	return &Package{
		Dir:   dir,
		Name:  pkgName,
		Fset:  fset,
		Files: files,
		Names: names,
		Pkg:   pkg,
		Info:  info,
	}, nil
}

// exportImporter resolves the files' imports from the export data the
// compiler writes to the build cache, as go/packages does: one
// "go list -export" in dir over those imports names each one's export
// file, building it if the cache lacks it (the go build that follows
// reuses it). The gc importer asks only for the files' direct imports,
// since export data carries every type it refers to, so go list needs
// no -deps. unsafe is the importer's own; a package importing nothing
// else runs no go list.
func exportImporter(dir string, fset *token.FileSet, files []*ast.File) (types.Importer, error) {
	seen := map[string]bool{"unsafe": true}
	var paths []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err == nil && !seen[path] {
				seen[path] = true
				paths = append(paths, path)
			}
		}
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		goCmd, err := exec.LookPath("go")
		if err != nil {
			return nil, fmt.Errorf("resolving imports needs the go command: %w", err)
		}
		args := append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", "--"}, paths...)
		cmd := exec.Command(goCmd, args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export %s: %v: %s", strings.Join(paths, " "), err, bytes.TrimSpace(stderr.Bytes()))
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				exports[path] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("go list reported no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}

// Position renders a node position relative to the package directory.
func (p *Package) Position(pos token.Pos) string {
	ps := p.Fset.Position(pos)
	if rel, err := filepath.Rel(p.Dir, ps.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		ps.Filename = rel
	}
	return ps.String()
}
