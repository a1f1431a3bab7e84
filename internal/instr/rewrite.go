package instr

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"strconv"
)

// The rewriter injects emission calls around the accesses the analysis
// classified, turns go statements into fork+register sequences, wraps
// //velo:atomic bodies in begin/end, swaps sync.Mutex / sync.WaitGroup
// for the shim wrappers, and prints the result as valid Go alongside a
// self-contained runtime shim (shim.go) that streams internal/trace's
// streaming binary format.
//
// Every event carries the emitting thread's id, and the rewriter — not
// the shim — supplies it. A function body runs, deferred calls included,
// on the goroutine that called it, so the tid is one value per body
// invocation: its slot, always spelled _velo_t.
//
//   - In a go wrapper the slot is the wrapper's parameter, filled by
//     _velo_fork in the parent.
//   - A package-level function the analysis proved Threadable (every
//     invocation is a direct call or go statement it saw) gains a
//     leading _velo_t parameter once its body needs a tid; every call
//     site passes the caller's. A call chain rooted at a go statement
//     therefore never looks a goroutine id up.
//   - Any other body that needs a tid (a method, main, init, a function
//     used as a value, a literal that escapes) declares a local slot and
//     reads it through _velo_self, which resolves it with one lookup on
//     first need.
//   - A literal in call position (invoked on the spot, deferred, or
//     go-launched inside its wrapper) runs on its encloser's goroutine
//     and shares the enclosing slot by capture. Any other literal may
//     run on another goroutine, so it owns a slot.

// RewriteOptions configure instrumentation.
type RewriteOptions struct {
	// Prune replaces accesses classified thread-local or lock-protected
	// with a counter bump (the paper's redundant-event optimization).
	// When false every candidate access emits an event — the
	// configuration the soundness differential test compares against.
	Prune bool
}

// Output is the instrumented package.
type Output struct {
	// Files maps base file names to instrumented source.
	Files map[string][]byte
	// Shim is the generated runtime support file (ShimFileName).
	Shim []byte
	// SitesEmitted and SitesPruned count access sites by how they were
	// rewritten under the chosen options.
	SitesEmitted int
	SitesPruned  int
}

// ShimFileName is the name of the generated runtime file.
const ShimFileName = "velo_shim.go"

// slot is one _velo_t variable: where the bodies that share it read
// their thread id.
type slot struct {
	param bool // a parameter, already resolved; else a local read through _velo_self
	used  bool
}

// threadedCall is a direct call of a Threadable function. Whether it
// passes a tid is settled after every body is rewritten: only then is it
// known which callees need one.
type threadedCall struct {
	call           *ast.CallExpr
	callee, caller *slot
}

type rewriter struct {
	p    *Package
	a    *Analysis
	dirs *Directives
	opt  RewriteOptions
	tmpN int

	slots  map[ast.Node]*slot // *ast.FuncDecl or *ast.FuncLit → the slot its body reads
	owners []ast.Node         // the bodies that declare their slot
	cur    *slot              // the slot of the body being rewritten
	calls  []threadedCall
	// ownSync holds the variables and fields declared in this package
	// with a sync.Mutex or sync.WaitGroup type expression: what
	// fixSyncTypes turns into shim wrappers.
	ownSync map[*types.Var]bool

	sitesEmitted int
	sitesPruned  int
}

// Rewrite instruments the package. The ASTs in p are mutated; load a
// fresh Package to rewrite again with different options.
func Rewrite(p *Package, dirs *Directives, a *Analysis, opt RewriteOptions) (*Output, error) {
	rw := &rewriter{p: p, a: a, dirs: dirs, opt: opt, slots: map[ast.Node]*slot{}, ownSync: map[*types.Var]bool{}}
	rw.assignSlots()
	for _, f := range p.Files {
		rw.collectOwnSync(f)
	}
	for _, f := range p.Files {
		// Collect bodies before mutation introduces new literals.
		var fns []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if bodyOf(n) != nil {
				fns = append(fns, n)
			}
			return true
		})
		for _, fn := range fns {
			rw.cur = rw.slotOf(fn)
			rw.rewriteCalls(bodyOf(fn))
			rw.rewriteBlock(bodyOf(fn))
			fd, ok := fn.(*ast.FuncDecl)
			if !ok {
				continue
			}
			var prefix []ast.Stmt
			if p.Name == "main" && fd.Recv == nil && fd.Name.Name == "main" {
				prefix = append(prefix, &ast.DeferStmt{Call: callExpr("_velo_done")})
			}
			if label, ok := rw.dirs.Atomic[fd]; ok {
				prefix = append(prefix,
					exprStmt(callExpr("_velo_begin", rw.tid(rw.cur), strLit(label))),
					&ast.DeferStmt{Call: callExpr("_velo_end", rw.tid(rw.cur))})
			}
			fd.Body.List = append(prefix, fd.Body.List...)
		}
	}
	rw.settleCalls()
	rw.declareSlots()

	out := &Output{Files: map[string][]byte{}}
	for i, f := range p.Files {
		rw.fixSyncTypes(f)
		rw.dropSyncImportIfUnused(f)

		var buf bytes.Buffer
		fmt.Fprintf(&buf, "// Code generated by veloinstr from %s. DO NOT EDIT.\n\n", p.Names[i])
		f.Comments = nil
		if err := format.Node(&buf, p.Fset, f); err != nil {
			return nil, fmt.Errorf("instr: printing %s: %w", p.Names[i], err)
		}
		src, err := format.Source(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("instr: formatting %s: %w", p.Names[i], err)
		}
		out.Files[p.Names[i]] = src
	}
	out.Shim = ShimSource(p.Name)
	out.SitesEmitted = rw.sitesEmitted
	out.SitesPruned = rw.sitesPruned
	return out, nil
}

// ---- thread-id slots ----

// assignSlots gives every scanned body its slot. a.Funcs lists a
// literal after the body that contains it, so a shared slot exists by
// the time its sharers ask for it.
func (rw *rewriter) assignSlots() {
	for _, fi := range rw.a.Funcs {
		switch {
		case fi.Decl != nil:
			rw.own(fi.Decl, &slot{param: fi.Threadable})
		case fi.Escapes:
			rw.own(fi.Lit, &slot{})
		case fi.GoLaunched:
			rw.slots[fi.Lit] = &slot{param: true} // the go wrapper's parameter
		case fi.Parent.Decl != nil:
			rw.slots[fi.Lit] = rw.slots[fi.Parent.Decl]
		default:
			rw.slots[fi.Lit] = rw.slots[fi.Parent.Lit]
		}
	}
}

func (rw *rewriter) own(fn ast.Node, s *slot) {
	rw.slots[fn] = s
	rw.owners = append(rw.owners, fn)
}

// slotOf also serves the literals the analysis never scanned (those in
// package-level initializers, which run who knows where): each owns one.
func (rw *rewriter) slotOf(fn ast.Node) *slot {
	if rw.slots[fn] == nil {
		rw.own(fn, &slot{})
	}
	return rw.slots[fn]
}

// tid renders the expression that reads slot s.
func (rw *rewriter) tid(s *slot) ast.Expr {
	s.used = true
	if s.param {
		return ast.NewIdent("_velo_t")
	}
	return callExpr("_velo_self", &ast.UnaryExpr{Op: token.AND, X: ast.NewIdent("_velo_t")})
}

// settleCalls passes a tid to every direct call whose callee turned out
// to need one. Passing it uses the caller's slot, which can make the
// caller need one in turn: iterate to the fixpoint.
func (rw *rewriter) settleCalls() {
	for changed := true; changed; {
		changed = false
		for i := range rw.calls {
			c := &rw.calls[i]
			if c.call != nil && c.callee.used {
				c.call.Args = append([]ast.Expr{rw.tid(c.caller)}, c.call.Args...)
				c.call = nil
				changed = true
			}
		}
	}
}

// declareSlots makes every used slot exist: a leading parameter on a
// threaded function, a local (-1: unresolved) at the top of any other
// owner.
func (rw *rewriter) declareSlots() {
	for _, fn := range rw.owners {
		s := rw.slots[fn]
		if !s.used {
			continue
		}
		if s.param {
			params := fn.(*ast.FuncDecl).Type.Params
			for _, f := range params.List {
				// Named and unnamed parameters cannot mix.
				if len(f.Names) == 0 {
					f.Names = []*ast.Ident{ast.NewIdent("_")}
				}
			}
			params.List = append([]*ast.Field{tidParam()}, params.List...)
			continue
		}
		body := bodyOf(fn)
		unresolved := &ast.AssignStmt{
			Lhs: []ast.Expr{ast.NewIdent("_velo_t")},
			Tok: token.DEFINE,
			Rhs: []ast.Expr{callExpr("int32", intLit(-1))},
		}
		body.List = append([]ast.Stmt{unresolved}, body.List...)
	}
}

// bodyOf returns the body of a function declaration or literal, nil for
// any other node and for a declaration without one.
func bodyOf(n ast.Node) *ast.BlockStmt {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

func tidParam() *ast.Field {
	return &ast.Field{Names: []*ast.Ident{ast.NewIdent("_velo_t")}, Type: ast.NewIdent("int32")}
}

// ---- call retargeting ----

// rewriteCalls retargets the calls in one body, nested literals
// excluded (each is a body of its own): direct calls of Threadable
// functions are queued for settleCalls, and sync.Mutex / sync.WaitGroup
// operations go to the shim's tid-taking methods. The call of a go
// statement is left to transformGo: it runs in the child.
func (rw *rewriter) rewriteCalls(body *ast.BlockStmt) {
	var launched *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			launched = x.Call
		case *ast.CallExpr:
			if x != launched {
				rw.rewriteCall(x, rw.cur)
			}
		}
		return true
	})
}

// tidMethods maps the sync operations that emit an event to the shim's
// tid-taking methods.
var tidMethods = map[string]string{
	"(*sync.Mutex).Lock":     "_velo_lock",
	"(*sync.Mutex).Unlock":   "_velo_unlock",
	"(*sync.WaitGroup).Done": "_velo_wgdone",
	"(*sync.WaitGroup).Wait": "_velo_wait",
}

// rewriteCall retargets one call evaluated by a body that reads slot s.
func (rw *rewriter) rewriteCall(call *ast.CallExpr, s *slot) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := rw.p.Info.Uses[fun].(*types.Func)
		if fi := rw.a.FuncOfObj(fn); fi != nil && fi.Threadable {
			rw.calls = append(rw.calls, threadedCall{call, rw.slots[fi.Decl], s})
		}
	case *ast.SelectorExpr:
		sel := rw.p.Info.Selections[fun]
		if sel == nil || sel.Kind() != types.MethodVal {
			return
		}
		name, ok := tidMethods[sel.Obj().(*types.Func).FullName()]
		if ok && rw.ownSync[rw.syncHolder(fun.X, sel)] {
			fun.Sel = ast.NewIdent(name)
			call.Args = []ast.Expr{rw.tid(s)}
		}
	}
}

// collectOwnSync records the variables, parameters and fields whose
// declared type expression is sync.Mutex or sync.WaitGroup under any
// nesting of pointer, slice, array, map or channel: indexing or
// dereferencing one of those yields a shim wrapper after fixSyncTypes.
func (rw *rewriter) collectOwnSync(f *ast.File) {
	var isSync func(e ast.Expr) *ast.Ident
	isSync = func(e ast.Expr) *ast.Ident {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			if rw.syncWrapper(t) != "" {
				return t.Sel
			}
		case *ast.StarExpr:
			return isSync(t.X)
		case *ast.ArrayType:
			return isSync(t.Elt)
		case *ast.MapType:
			return isSync(t.Value)
		case *ast.ChanType:
			return isSync(t.Value)
		case *ast.ParenExpr:
			return isSync(t.X)
		}
		return nil
	}
	mark := func(typ ast.Expr, names []*ast.Ident) {
		if typ == nil {
			return
		}
		embedded := isSync(typ)
		if embedded == nil {
			return
		}
		if len(names) == 0 {
			names = []*ast.Ident{embedded} // an embedded field is defined by its type name
		}
		for _, id := range names {
			if v, ok := rw.p.Info.Defs[id].(*types.Var); ok {
				rw.ownSync[v] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ValueSpec:
			mark(x.Type, x.Names)
		case *ast.Field:
			mark(x.Type, x.Names)
		}
		return true
	})
}

// syncHolder finds the variable or field that stores the mutex or wait
// group a method call lands on: the innermost embedded field for a
// promoted method, else the base of the receiver expression under any
// indexing, dereference or address-of. Nil when the receiver is rooted
// in a call or other expression; the plain shim methods serve those, and
// any primitive that is not one of ours stays the real sync type.
func (rw *rewriter) syncHolder(x ast.Expr, sel *types.Selection) *types.Var {
	if path := sel.Index(); len(path) > 1 {
		var holder *types.Var
		t := sel.Recv()
		for _, i := range path[:len(path)-1] {
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			holder = t.Underlying().(*types.Struct).Field(i)
			t = holder.Type()
		}
		return holder
	}
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return nil
			}
			x = e.X
		case *ast.Ident:
			v, _ := rw.p.Info.Uses[e].(*types.Var)
			return v
		case *ast.SelectorExpr:
			v, _ := rw.p.Info.Uses[e.Sel].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// ---- statement rewriting ----

func (rw *rewriter) rewriteBlock(b *ast.BlockStmt) {
	b.List = rw.rewriteList(b.List)
}

func (rw *rewriter) rewriteList(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		ss := rw.a.StmtFor(s)
		if ss != nil {
			out = append(out, rw.emissions(ss.Pre)...)
		}
		out = append(out, rw.transformStmt(s, ss)...)
		if ss != nil {
			out = append(out, rw.emissions(ss.Post)...)
		}
	}
	return out
}

// transformStmt rewrites nested bodies in place and expands go
// statements; it returns the replacement statement sequence.
func (rw *rewriter) transformStmt(s ast.Stmt, ss *StmtSites) []ast.Stmt {
	switch st := s.(type) {
	case *ast.GoStmt:
		return rw.transformGo(st)
	case *ast.IfStmt:
		rw.rewriteBlock(st.Body)
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			rw.rewriteBlock(e)
		case *ast.IfStmt:
			// Normalize "else if" to "else { if }" so the nested if's
			// pre-emissions have a statement list to land in.
			inner := rw.transformWithSites(e)
			st.Else = &ast.BlockStmt{List: inner}
		}
	case *ast.ForStmt:
		rw.rewriteBlock(st.Body)
		if ss != nil && len(ss.LoopEnd) > 0 {
			st.Body.List = append(st.Body.List, rw.emissions(ss.LoopEnd)...)
		}
	case *ast.RangeStmt:
		rw.rewriteBlock(st.Body)
	case *ast.BlockStmt:
		rw.rewriteBlock(st)
	case *ast.SwitchStmt:
		rw.rewriteCaseBodies(st.Body)
	case *ast.TypeSwitchStmt:
		rw.rewriteCaseBodies(st.Body)
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				cc.Body = rw.rewriteList(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		inner := rw.transformStmt(st.Stmt, rw.a.StmtFor(st.Stmt))
		if len(inner) == 1 {
			st.Stmt = inner[0]
		} else {
			st.Stmt = &ast.BlockStmt{List: inner}
		}
	}
	return []ast.Stmt{s}
}

func (rw *rewriter) transformWithSites(s ast.Stmt) []ast.Stmt {
	ss := rw.a.StmtFor(s)
	var out []ast.Stmt
	if ss != nil {
		out = append(out, rw.emissions(ss.Pre)...)
	}
	out = append(out, rw.transformStmt(s, ss)...)
	if ss != nil {
		out = append(out, rw.emissions(ss.Post)...)
	}
	return out
}

func (rw *rewriter) rewriteCaseBodies(body *ast.BlockStmt) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			cc.Body = rw.rewriteList(cc.Body)
		}
	}
}

// ---- emission ----

// emissions renders the instrumentation statements for a batch of
// accesses: one _velo_rd/_velo_wr call per emitted access, and a single
// aggregated _velo_prune(n) for pruned ones.
func (rw *rewriter) emissions(accs []*Access) []ast.Stmt {
	var out []ast.Stmt
	pruned := 0
	for _, ac := range accs {
		switch {
		case ac.Action == actionEmit || (ac.Action == actionPrune && !rw.opt.Prune):
			rw.sitesEmitted++
			name := "_velo_rd"
			if ac.Write {
				name = "_velo_wr"
			}
			addr := &ast.UnaryExpr{Op: token.AND, X: cloneExpr(ac.Addr)}
			out = append(out, exprStmt(callExpr(name, rw.tid(rw.cur), addr)))
		case ac.Action == actionPrune:
			rw.sitesPruned++
			pruned++
		}
	}
	if pruned > 0 {
		out = append(out, exprStmt(callExpr("_velo_prune", intLit(pruned))))
	}
	return out
}

// ---- go statement transform ----

// transformGo rewrites
//
//	go f(a, b)
//
// into
//
//	_velo_g0 := a
//	_velo_g1 := b
//	go func(_velo_t int32) {
//		defer _velo_exit(_velo_child(_velo_t))
//		f(_velo_g0, _velo_g1)
//	}(_velo_fork(<parent tid>))
//
// preserving the evaluation of arguments in the parent goroutine at the
// go statement, emitting fork(parent, child) before the child can run,
// and registering the child's identity as its first action — for the
// bodies that must look it up; f itself, when threaded or a literal,
// reads the wrapper's _velo_t. The deferred _velo_exit drops the
// registration after everything f deferred (its wg.Done included).
func (rw *rewriter) transformGo(st *ast.GoStmt) []ast.Stmt {
	var out []ast.Stmt
	call := st.Call
	newArgs := make([]ast.Expr, len(call.Args))
	for i, arg := range call.Args {
		if lit, ok := arg.(*ast.BasicLit); ok {
			newArgs[i] = lit
			continue
		}
		tmp := fmt.Sprintf("_velo_g%d", rw.tmpN)
		rw.tmpN++
		out = append(out, &ast.AssignStmt{
			Lhs: []ast.Expr{ast.NewIdent(tmp)},
			Tok: token.DEFINE,
			Rhs: []ast.Expr{arg},
		})
		newArgs[i] = ast.NewIdent(tmp)
	}
	inner := &ast.CallExpr{Fun: call.Fun, Args: newArgs, Ellipsis: call.Ellipsis}
	rw.rewriteCall(inner, &slot{param: true}) // it reads the wrapper's parameter
	wrapper := &ast.FuncLit{
		Type: &ast.FuncType{Params: &ast.FieldList{List: []*ast.Field{tidParam()}}},
		Body: &ast.BlockStmt{List: []ast.Stmt{
			&ast.DeferStmt{Call: callExpr("_velo_exit", callExpr("_velo_child", ast.NewIdent("_velo_t")))},
			exprStmt(inner),
		}},
	}
	out = append(out, &ast.GoStmt{
		Call: &ast.CallExpr{Fun: wrapper, Args: []ast.Expr{callExpr("_velo_fork", rw.tid(rw.cur))}},
	})
	return out
}

// ---- sync type replacement ----

// fixSyncTypes replaces every type-position use of sync.Mutex and
// sync.WaitGroup with the shim wrappers, so lock and wait-group
// operations emit acq/rel and join events from inside the primitive.
func (rw *rewriter) fixSyncTypes(f *ast.File) {
	repl := func(e ast.Expr) ast.Expr {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if name := rw.syncWrapper(sel); name != "" {
				return ast.NewIdent(name)
			}
		}
		return nil
	}
	fix := func(slot *ast.Expr) {
		if *slot == nil {
			return
		}
		if r := repl(*slot); r != nil {
			*slot = r
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ValueSpec:
			fix(&x.Type)
		case *ast.Field:
			fix(&x.Type)
		case *ast.ArrayType:
			fix(&x.Elt)
		case *ast.StarExpr:
			fix(&x.X)
		case *ast.MapType:
			fix(&x.Key)
			fix(&x.Value)
		case *ast.ChanType:
			fix(&x.Value)
		case *ast.CompositeLit:
			fix(&x.Type)
		case *ast.TypeSpec:
			fix(&x.Type)
		case *ast.Ellipsis:
			fix(&x.Elt)
		case *ast.TypeAssertExpr:
			fix(&x.Type)
		case *ast.CallExpr:
			// new(sync.Mutex), make([]sync.Mutex, n): the type argument.
			if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "new" || id.Name == "make") && len(x.Args) > 0 {
				fix(&x.Args[0])
			}
		}
		return true
	})
}

// syncWrapper names the shim type that replaces the type expression
// sel, "" unless sel is sync.Mutex or sync.WaitGroup.
func (rw *rewriter) syncWrapper(sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := rw.p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync" {
		return ""
	}
	switch sel.Sel.Name {
	case "Mutex":
		return "_veloMutex"
	case "WaitGroup":
		return "_veloWaitGroup"
	}
	return ""
}

// dropSyncImportIfUnused removes the sync import once every reference
// was rewritten away (the shim imports sync itself).
func (rw *rewriter) dropSyncImportIfUnused(f *ast.File) {
	used := false
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := rw.p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sync" {
			used = true
		}
		return true
	})
	if used {
		return
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		var kept []ast.Spec
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			if v, err := strconv.Unquote(is.Path.Value); err == nil && v == "sync" && is.Name == nil {
				continue
			}
			kept = append(kept, spec)
		}
		gd.Specs = kept
	}
	var kept []ast.Decl
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.IMPORT && len(gd.Specs) == 0 {
			continue
		}
		kept = append(kept, d)
	}
	f.Decls = kept
	var keptImports []*ast.ImportSpec
	for _, is := range f.Imports {
		if v, err := strconv.Unquote(is.Path.Value); err == nil && v == "sync" && is.Name == nil {
			continue
		}
		keptImports = append(keptImports, is)
	}
	f.Imports = keptImports
}

// ---- AST construction helpers (all position-free) ----

func callExpr(name string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{Fun: ast.NewIdent(name), Args: args}
}

func exprStmt(e ast.Expr) ast.Stmt { return &ast.ExprStmt{X: e} }

func strLit(s string) ast.Expr {
	return &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(s)}
}

func intLit(n int) ast.Expr {
	return &ast.BasicLit{Kind: token.INT, Value: strconv.Itoa(n)}
}

// cloneExpr duplicates a clonable lvalue with positions stripped, so the
// copy can be re-printed inside an injected emission call.
func cloneExpr(e ast.Expr) ast.Expr {
	switch ex := e.(type) {
	case *ast.Ident:
		return ast.NewIdent(ex.Name)
	case *ast.BasicLit:
		return &ast.BasicLit{Kind: ex.Kind, Value: ex.Value}
	case *ast.SelectorExpr:
		return &ast.SelectorExpr{X: cloneExpr(ex.X), Sel: ast.NewIdent(ex.Sel.Name)}
	case *ast.IndexExpr:
		return &ast.IndexExpr{X: cloneExpr(ex.X), Index: cloneExpr(ex.Index)}
	case *ast.StarExpr:
		return &ast.StarExpr{X: cloneExpr(ex.X)}
	case *ast.ParenExpr:
		return &ast.ParenExpr{X: cloneExpr(ex.X)}
	case *ast.BinaryExpr:
		return &ast.BinaryExpr{X: cloneExpr(ex.X), Op: ex.Op, Y: cloneExpr(ex.Y)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: ex.Op, X: cloneExpr(ex.X)}
	}
	// clonable() gates what reaches here.
	panic(fmt.Sprintf("instr: cloneExpr on %T", e))
}
