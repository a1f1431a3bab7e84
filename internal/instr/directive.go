package instr

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// The atomicity specification of Section 5 is given as //velo: comment
// directives. The only directive today is
//
//	//velo:atomic [label]
//
// on a function declaration: the function body becomes an atomic block
// (begin/end events), labeled by the function's name unless an explicit
// label is given. Anything else spelled //velo: is a diagnostic —
// -analyze doubles as the well-formedness linter for the annotation
// language, so a typo cannot silently weaken the checked specification.

const directivePrefix = "//velo:"

// Directives is the parsed annotation set of a package.
type Directives struct {
	// Atomic maps annotated function declarations to their block label.
	Atomic map[*ast.FuncDecl]string
	// Diags lists ill-formed annotations, in source order. Each is an
	// error: an unparseable specification must block instrumentation,
	// not weaken it silently.
	Diags []Diagnostic
}

// Diagnostic is one ill-formed //velo: annotation. Severity and Code
// are always "error" and "velo-directive"; they are fields so that
// -analyze -json spells them out.
type Diagnostic struct {
	Pos      string `json:"pos"` // package-relative file:line:col
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Message  string `json:"message"`

	at token.Pos // sort key
}

// String renders "pos: message".
func (d Diagnostic) String() string { return d.Pos + ": " + d.Message }

// Render prints the vet-style line "main.go:12:2: error: message [code]".
func (d Diagnostic) Render() string {
	return fmt.Sprintf("%s: %s: %s [%s]", d.Pos, d.Severity, d.Message, d.Code)
}

// ScanDirectives collects //velo: annotations and their diagnostics.
func ScanDirectives(p *Package) *Directives {
	d := &Directives{Atomic: map[*ast.FuncDecl]string{}}
	// Comments consumed by a function declaration's doc group.
	consumed := map[*ast.Comment]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				verb, arg, isDir := parseDirective(c.Text)
				if !isDir {
					continue
				}
				consumed[c] = true
				if verb != "atomic" {
					d.diag(p, c, "unknown directive //velo:%s (known: atomic)", verb)
					continue
				}
				label := funcLabel(fd)
				if arg != "" {
					if strings.ContainsAny(arg, "() \t") {
						d.diag(p, c, "malformed //velo:atomic label %q", arg)
						continue
					}
					label = arg
				}
				if prev, dup := d.Atomic[fd]; dup {
					d.diag(p, c, "duplicate //velo:atomic on %s (already labeled %q)", fd.Name.Name, prev)
					continue
				}
				d.Atomic[fd] = label
			}
		}
	}
	// Any remaining //velo: comment is misplaced: attached to a
	// non-function declaration, dangling inside a body, or free-floating.
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, _, isDir := parseDirective(c.Text)
				if !isDir || consumed[c] {
					continue
				}
				if verb == "atomic" {
					d.diag(p, c, "//velo:atomic must be in the doc comment of a function declaration")
				} else {
					d.diag(p, c, "unknown directive //velo:%s (known: atomic)", verb)
				}
			}
		}
	}
	// Files are parsed in name order, so position order is file, line,
	// column order.
	sort.Slice(d.Diags, func(i, j int) bool { return d.Diags[i].at < d.Diags[j].at })
	return d
}

func (d *Directives) diag(p *Package, c *ast.Comment, format string, args ...any) {
	d.Diags = append(d.Diags, Diagnostic{
		Pos:      p.Position(c.Pos()),
		Severity: "error",
		Code:     "velo-directive",
		Message:  fmt.Sprintf(format, args...),
		at:       c.Pos(),
	})
}

// parseDirective splits "//velo:verb arg" into its parts. Only comments
// in exact compiler-directive shape (no space after //) count.
func parseDirective(text string) (verb, arg string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	verb, arg, _ = strings.Cut(rest, " ")
	return verb, strings.TrimSpace(arg), true
}

// funcLabel names the atomic block of an annotated function: Recv.Name
// for methods, plain Name otherwise (matching the paper's method-named
// transactions in warnings, e.g. "Bank.transfer"). Receiver type syntax
// is unwrapped structurally, so value receivers, parenthesized forms and
// generic receivers ((c *Cache[K]) or c Counter) all label correctly.
func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if name := recvTypeName(fd.Recv.List[0].Type); name != "" {
			return name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// recvTypeName extracts the base type name from receiver syntax.
func recvTypeName(t ast.Expr) string {
	switch ex := t.(type) {
	case *ast.Ident:
		return ex.Name
	case *ast.StarExpr:
		return recvTypeName(ex.X)
	case *ast.ParenExpr:
		return recvTypeName(ex.X)
	case *ast.IndexExpr: // generic receiver with one type parameter
		return recvTypeName(ex.X)
	case *ast.IndexListExpr: // generic receiver with several type parameters
		return recvTypeName(ex.X)
	}
	return ""
}
