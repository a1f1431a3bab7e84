package instr

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Shared-access facts: a conservative, flow-light classification of
// every candidate memory access in the package, mirroring the paper's
// Section 5 redundant-event filters. Accesses that are provably
// goroutine-local (the variable is never reachable from a go-launched
// closure) are pruned like RoadRunner's thread-local filter; accesses
// that always happen under one common dominating mutex are pruned like
// its lock-protected filter — the conflict edges they would induce are
// subsumed by the acquire/release edges of that mutex, so the checker's
// verdict is unchanged (see DESIGN.md).
//
// The analysis errs toward instrumenting: anything aliased, escaping,
// reached through a pointer, slice or map, or accessed from code that a
// go statement can reach, stays instrumented. The interprocedural half
// (interproc.go) additionally propagates dominating-mutex facts through
// same-package call edges, so strictly more accesses can be pruned than
// the syntactic per-function analysis alone.

// Class is the verdict for one variable's accesses.
type Class int

// Classes, from "must instrument" to "safely pruned".
const (
	// ClassShared accesses are instrumented and emit rd/wr events.
	ClassShared Class = iota
	// ClassThreadLocal variables are never reachable from a go-launched
	// function: their accesses are pruned.
	ClassThreadLocal
	// ClassLockProtected variables are accessed only while one common
	// mutex is held: their accesses are pruned, the mutex's own
	// acquire/release events subsume them.
	ClassLockProtected
)

// String renders the class as printed in the -analyze table.
func (c Class) String() string {
	switch c {
	case ClassThreadLocal:
		return "thread-local"
	case ClassLockProtected:
		return "lock-protected"
	default:
		return "shared"
	}
}

// VarInfo is one row of the classification table.
type VarInfo struct {
	Name   string
	Kind   string // "pkg var", "captured local", "addressed local", "local ref"
	Class  Class
	Lock   string // dominating mutex path for ClassLockProtected
	Reads  int    // candidate read sites
	Writes int    // candidate write sites
	// Interproc marks a ClassLockProtected variable whose dominating
	// mutex was established only by the interprocedural call-graph
	// propagation — the syntactic analysis alone would classify it
	// shared.
	Interproc bool
	// Accs are the candidate accesses aggregated into this row, in scan
	// order.
	Accs []*Access
}

// Access is one candidate read or write site.
type Access struct {
	Lv    ast.Expr   // the lvalue expression
	Addr  ast.Expr   // expression whose address identifies the location (map elements fall back to the map variable); nil when opaque
	Root  *types.Var // leftmost base variable, nil when opaque
	Write bool
	Deref bool // reaches data through a pointer, slice or map
	// SynHeld is the syntactically held lock set at the access; Held
	// additionally includes the enclosing function's interprocedural
	// entry set.
	SynHeld []string
	Held    []string
	Fn      *FuncInfo
	Action  Action
	Opaque  bool
}

// Action is the rewriter's decision for one access.
type Action int

// Actions.
const (
	ActionSkip Action = iota // plain local, below the candidate bar
	ActionEmit
	ActionPrune
)

// StmtSites records the accesses attributed to one statement. The
// rewriter emits Pre before the statement, Post after it, and LoopEnd at
// the end of a for-statement's body (covering condition/post accesses
// re-evaluated each iteration).
type StmtSites struct {
	Pre     []*Access
	Post    []*Access
	LoopEnd []*Access
}

// FuncInfo is one function body: a declaration or a literal.
type FuncInfo struct {
	Decl       *ast.FuncDecl
	Lit        *ast.FuncLit
	Parent     *FuncInfo
	GoLaunched bool
	Escapes    bool // literal referenced outside an immediate call
	Concurrent bool
	Calls      []*types.Func
	// Entry is the interprocedural entry lock set: package-level mutex
	// paths held at every reachable call site (nil when the function is
	// an analysis root).
	Entry []string
	// Threadable marks a declared function whose every invocation is a
	// same-package direct call or go statement the scan saw (see
	// directOnly): a rewriter may change its signature, because it can
	// reach every caller.
	Threadable bool
}

// Analysis is the classification result the rewriter consumes.
type Analysis struct {
	Vars   []*VarInfo // sorted by name
	ByStmt map[ast.Stmt]*StmtSites
	// Funcs lists every scanned function body: declarations in file
	// order, then literals in discovery order.
	Funcs []*FuncInfo
	// Opaque lists positions of candidate accesses that cannot be
	// instrumented (lvalues containing calls or non-clonable syntax).
	Opaque []string
	// Unsupported lists uses of sync primitives the front-end does not
	// model (e.g. RWMutex); their synchronization is invisible to the
	// emitted trace.
	Unsupported []string
	// Mutexes and WaitGroups count declarations whose type mentions the
	// corresponding sync primitive (rewritten to shim wrappers).
	Mutexes    int
	WaitGroups int

	accesses []*Access
	fnOf     map[*types.Func]*FuncInfo // named functions with bodies
	ownSync  map[*types.Var]bool       // Package.ownSync: what the rewrite wraps
}

type builder struct {
	a        *Analysis
	p        *Package
	queue    []*FuncInfo // literals discovered but not yet scanned
	captured map[*types.Var]bool
	addrOf   map[*types.Var]bool
	allFns   []*FuncInfo
	goNamed  map[*types.Func]bool
	refNamed map[*types.Func]bool
	// calleeIdents are the identifiers the scan consumed in callee
	// position; any other use of a function's name is a reference.
	calleeIdents map[*ast.Ident]bool
	litInfo      map[*ast.FuncLit]*FuncInfo

	// callSites feed the interprocedural entry-lock fixpoint.
	callSites []callSite
	inDefer   bool
}

// callSite is one direct same-package invocation: of a named function
// (fn) or of an immediately-invoked literal (lit).
type callSite struct {
	fn     *types.Func
	lit    *FuncInfo
	caller *FuncInfo
	// held is the set of package-level mutex paths syntactically held at
	// the call; nil for call sites inside deferred expressions, which
	// run at function exit where the held set is unknowable.
	held []string
}

// Analyze classifies every candidate access of the package.
func Analyze(p *Package, dirs *Directives) *Analysis {
	a := &Analysis{ByStmt: map[ast.Stmt]*StmtSites{}, fnOf: map[*types.Func]*FuncInfo{}, ownSync: p.ownSync()}
	b := &builder{
		a:            a,
		p:            p,
		captured:     map[*types.Var]bool{},
		addrOf:       map[*types.Var]bool{},
		goNamed:      map[*types.Func]bool{},
		refNamed:     map[*types.Func]bool{},
		litInfo:      map[*ast.FuncLit]*FuncInfo{},
		calleeIdents: map[*ast.Ident]bool{},
	}
	// Register named functions first so call edges resolve.
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				fi := &FuncInfo{Decl: fd}
				a.fnOf[fn] = fi
				b.allFns = append(b.allFns, fi)
			}
		}
	}
	// Scan every declared body; literals are queued as discovered.
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			fi := a.fnOf[fn]
			if fi == nil {
				continue
			}
			b.scanStmts(fi, fd.Body.List, map[string]bool{})
		}
	}
	for len(b.queue) > 0 {
		fi := b.queue[0]
		b.queue = b.queue[1:]
		b.scanStmts(fi, fi.Lit.Body.List, map[string]bool{})
	}
	b.markRefNamed()
	for _, fi := range b.allFns {
		fi.Threadable = fi.Decl != nil && b.directOnly(fi)
	}
	b.countSyncDecls()
	b.fixpoint()
	b.lockFixpoint()
	b.classify()
	a.Funcs = b.allFns
	return a
}

// markRefNamed marks every same-package function whose name is used
// anywhere but the callee position of a scanned call: as an argument
// (go run(h)), an assigned value (h := helper), a composite-literal
// field, or anything inside a package-level initializer, which runs
// before main and is never scanned. Such a function may be invoked from
// any goroutine, with any lock state, through edges the scan cannot see.
// Sweeping the type-checker's use map, rather than marking during the
// scan, makes the set complete whatever syntax the scan skips.
func (b *builder) markRefNamed() {
	for id, obj := range b.p.Info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() == b.p.Pkg && !b.calleeIdents[id] {
			b.refNamed[fn] = true
		}
	}
}

// directOnly reports whether every invocation of fi is an edge the scan
// recorded: a same-package direct call or a go statement. That holds for
// a literal in call position, and for a package-level function of
// package main that is never referenced by name and is neither a method
// (interface dispatch, method values), nor main or init (called by the
// runtime); any named function of a library package may be called from
// a sibling package or test.
func (b *builder) directOnly(fi *FuncInfo) bool {
	if fi.Decl == nil {
		return !fi.Escapes
	}
	if b.p.Name != "main" || fi.Decl.Recv != nil {
		return false
	}
	if name := fi.Decl.Name.Name; name == "main" || name == "init" {
		return false
	}
	fn, _ := b.p.Info.Defs[fi.Decl.Name].(*types.Func)
	return !b.refNamed[fn]
}

// ---- concurrency fixpoint ----

func (b *builder) fixpoint() {
	concNamed := map[*types.Func]bool{}
	for fn := range b.goNamed {
		concNamed[fn] = true
	}
	// A function whose value escapes may be invoked from any goroutine.
	for fn := range b.refNamed {
		concNamed[fn] = true
	}
	nonMain := b.p.Name != "main"
	for changed := true; changed; {
		changed = false
		for _, fi := range b.allFns {
			c := fi.GoLaunched || fi.Escapes
			if fi.Parent != nil && fi.Parent.Concurrent {
				c = true
			}
			if fi.Decl != nil {
				if nonMain {
					// Any exported-or-not function of a library package
					// may be called from arbitrary goroutines.
					c = true
				}
				if fn, ok := b.p.Info.Defs[fi.Decl.Name].(*types.Func); ok && concNamed[fn] {
					c = true
				}
			}
			if c && !fi.Concurrent {
				fi.Concurrent = true
				changed = true
			}
			if fi.Concurrent {
				for _, callee := range fi.Calls {
					if !concNamed[callee] {
						concNamed[callee] = true
						changed = true
					}
				}
			}
		}
	}
}

// ---- classification ----

func (b *builder) classify() {
	a := b.a
	agg := map[*types.Var]*VarInfo{}
	var order []*types.Var
	for _, ac := range a.accesses {
		if ac.Opaque {
			a.Opaque = append(a.Opaque, b.p.Position(ac.Lv.Pos()))
			continue
		}
		root := ac.Root
		if root == nil {
			continue
		}
		if !b.candidate(ac) {
			ac.Action = ActionSkip
			continue
		}
		g := agg[root]
		if g == nil {
			g = &VarInfo{Name: root.Name(), Kind: b.varKind(ac)}
			agg[root] = g
			order = append(order, root)
		}
		g.Accs = append(g.Accs, ac)
		if ac.Write {
			g.Writes++
		} else {
			g.Reads++
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Name() != order[j].Name() {
			return order[i].Name() < order[j].Name()
		}
		return order[i].Pos() < order[j].Pos()
	})
	for _, root := range order {
		g := agg[root]
		concurrent := false
		for _, ac := range g.Accs {
			if ac.Fn.Concurrent {
				concurrent = true
				break
			}
		}
		switch {
		case !concurrent:
			g.Class = ClassThreadLocal
		default:
			if lock := commonLock(g.Accs, fullHeld); lock != "" {
				g.Class = ClassLockProtected
				g.Lock = lock
				if commonLock(g.Accs, synHeld) == "" {
					g.Interproc = true
				}
			} else {
				g.Class = ClassShared
			}
		}
		act := ActionPrune
		if g.Class == ClassShared {
			act = ActionEmit
		}
		for _, ac := range g.Accs {
			ac.Action = act
		}
		a.Vars = append(a.Vars, g)
	}
	sort.Strings(a.Opaque)
	sort.Strings(a.Unsupported)
}

// candidate reports whether an access can involve more than one
// goroutine at all: package-level variables, locals that are captured by
// a closure or have their address taken, and anything reached through a
// pointer, slice or map (whose referent may be aliased). Everything else
// is a plain stack local — the analogue of a JVM stack slot, which
// RoadRunner never instruments either.
func (b *builder) candidate(ac *Access) bool {
	if ac.Deref {
		return true
	}
	root := ac.Root
	if root.Parent() == b.p.Pkg.Scope() {
		return true
	}
	return b.captured[root] || b.addrOf[root]
}

func (b *builder) varKind(ac *Access) string {
	root := ac.Root
	switch {
	case root.Parent() == b.p.Pkg.Scope():
		return "pkg var"
	case b.captured[root]:
		return "captured local"
	case b.addrOf[root]:
		return "addressed local"
	default:
		return "local ref"
	}
}

// heldView selects which held set of an access a lockset computation
// uses: the full (interprocedural) one or the syntactic one.
type heldView func(*Access) []string

func fullHeld(ac *Access) []string { return ac.Held }
func synHeld(ac *Access) []string  { return ac.SynHeld }

// commonLock intersects the held-lock sets of all accesses.
func commonLock(accs []*Access, view heldView) string {
	if len(accs) == 0 {
		return ""
	}
	common := map[string]bool{}
	for _, l := range view(accs[0]) {
		common[l] = true
	}
	for _, ac := range accs[1:] {
		cur := map[string]bool{}
		for _, l := range view(ac) {
			if common[l] {
				cur[l] = true
			}
		}
		common = cur
		if len(common) == 0 {
			return ""
		}
	}
	locks := make([]string, 0, len(common))
	for l := range common {
		locks = append(locks, l)
	}
	sort.Strings(locks)
	return locks[0]
}

// ---- statement scanning ----

func (b *builder) sites(s ast.Stmt) *StmtSites {
	ss := b.a.ByStmt[s]
	if ss == nil {
		ss = &StmtSites{}
		b.a.ByStmt[s] = ss
	}
	return ss
}

// The held map carries the syntactically held mutex paths; the value
// records whether the path is rooted at a package-level variable (only
// those are meaningful across a call edge).
func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func heldList(held map[string]bool) []string {
	out := make([]string, 0, len(held))
	for l := range held {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// pkgHeld filters held down to package-level lock paths, the only ones
// whose identity survives a call edge.
func (b *builder) pkgHeld(held map[string]bool) []string {
	if b.inDefer {
		return nil
	}
	out := []string{}
	for l, pkgLevel := range held {
		if pkgLevel {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// scanStmts walks a statement list in order, tracking syntactically held
// mutexes and recording candidate accesses per statement.
func (b *builder) scanStmts(fi *FuncInfo, list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		b.scanStmt(fi, s, held)
	}
}

func (b *builder) scanStmt(fi *FuncInfo, s ast.Stmt, held map[string]bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if path, pkgLevel, locked, ok := b.lockOp(st.X); ok {
			if locked {
				if path != "" {
					held[path] = pkgLevel
				}
			} else if path != "" {
				delete(held, path)
			}
			return
		}
		b.scanExpr(fi, s, pre, st.X, held)
	case *ast.DeferStmt:
		// "defer mu.Unlock()" keeps mu held for the rest of the body:
		// there is no explicit Unlock statement to pop it, which is
		// exactly the conservative reading we want.
		if _, _, _, ok := b.lockOp(st.Call); ok {
			return
		}
		wasDefer := b.inDefer
		b.inDefer = true
		b.scanExpr(fi, s, pre, st.Call, held)
		b.inDefer = wasDefer
	case *ast.GoStmt:
		// Arguments are evaluated in the parent goroutine at the go
		// statement; the callee body runs concurrently.
		b.scanGoCall(fi, s, st.Call, held)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			b.scanExpr(fi, s, pre, rhs, held)
		}
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
				b.recordAccess(fi, s, post, lhs, true, held)
				b.scanIndexParts(fi, s, lhs, held)
			} else {
				// Compound assignment reads then writes the lvalue.
				b.recordAccess(fi, s, pre, lhs, false, held)
				b.recordAccess(fi, s, post, lhs, true, held)
				b.scanIndexParts(fi, s, lhs, held)
			}
		}
	case *ast.IncDecStmt:
		b.recordAccess(fi, s, pre, st.X, false, held)
		b.recordAccess(fi, s, post, st.X, true, held)
		b.scanIndexParts(fi, s, st.X, held)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			b.scanExpr(fi, s, pre, r, held)
		}
	case *ast.SendStmt:
		b.scanExpr(fi, s, pre, st.Value, held)
	case *ast.IfStmt:
		if st.Init != nil {
			b.scanInit(fi, s, st.Init, held)
		}
		b.scanExpr(fi, s, pre, st.Cond, held)
		b.scanStmts(fi, st.Body.List, copyHeld(held))
		if st.Else != nil {
			b.scanStmt(fi, st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			b.scanInit(fi, s, st.Init, held)
		}
		inner := copyHeld(held)
		if st.Cond != nil {
			b.scanExprInto(fi, s, st.Cond, held, func(ss *StmtSites, ac *Access) {
				ss.Pre = append(ss.Pre, ac)
				ss.LoopEnd = append(ss.LoopEnd, ac)
			})
		}
		if st.Post != nil {
			b.scanPostStmt(fi, s, st.Post, inner)
		}
		b.scanStmts(fi, st.Body.List, inner)
	case *ast.RangeStmt:
		b.scanExpr(fi, s, pre, st.X, held)
		b.scanStmts(fi, st.Body.List, copyHeld(held))
	case *ast.BlockStmt:
		b.scanStmts(fi, st.List, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.scanInit(fi, s, st.Init, held)
		}
		if st.Tag != nil {
			b.scanExpr(fi, s, pre, st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					b.scanExpr(fi, s, pre, e, held)
				}
				b.scanStmts(fi, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.scanInit(fi, s, st.Init, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				b.scanStmts(fi, cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					b.scanStmt(fi, cc.Comm, copyHeld(held))
				}
				b.scanStmts(fi, cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		b.scanStmt(fi, st.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						b.scanExpr(fi, s, pre, v, held)
					}
					for _, n := range vs.Names {
						if n.Name != "_" {
							b.recordAccess(fi, s, post, n, true, held)
						}
					}
				}
			}
		}
	}
}

// scanInit attributes an if/for/switch init statement's accesses to the
// enclosing statement (the rewriter cannot insert between init and
// cond; writes land slightly early, which is documented best-effort).
func (b *builder) scanInit(fi *FuncInfo, owner ast.Stmt, init ast.Stmt, held map[string]bool) {
	switch st := init.(type) {
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			b.scanExpr(fi, owner, pre, rhs, held)
		}
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			b.recordAccess(fi, owner, pre, lhs, true, held)
		}
	case *ast.ExprStmt:
		b.scanExpr(fi, owner, pre, st.X, held)
	}
}

// scanPostStmt attributes a for-loop post statement's accesses to the
// loop body's end.
func (b *builder) scanPostStmt(fi *FuncInfo, owner ast.Stmt, postStmt ast.Stmt, held map[string]bool) {
	record := func(ss *StmtSites, ac *Access) { ss.LoopEnd = append(ss.LoopEnd, ac) }
	switch st := postStmt.(type) {
	case *ast.IncDecStmt:
		b.recordAccessInto(fi, owner, st.X, false, held, record)
		b.recordAccessInto(fi, owner, st.X, true, held, record)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			b.scanExprInto(fi, owner, rhs, held, record)
		}
		for _, lhs := range st.Lhs {
			b.recordAccessInto(fi, owner, lhs, true, held, record)
		}
	}
}

type listKind int

const (
	pre listKind = iota
	post
)

// ---- expression scanning ----

// scanExpr records read accesses for every candidate lvalue in e.
func (b *builder) scanExpr(fi *FuncInfo, s ast.Stmt, kind listKind, e ast.Expr, held map[string]bool) {
	b.scanExprInto(fi, s, e, held, func(ss *StmtSites, ac *Access) {
		if kind == pre {
			ss.Pre = append(ss.Pre, ac)
		} else {
			ss.Post = append(ss.Post, ac)
		}
	})
}

func (b *builder) scanExprInto(fi *FuncInfo, s ast.Stmt, e ast.Expr, held map[string]bool, record func(*StmtSites, *Access)) {
	switch ex := e.(type) {
	case nil:
	case *ast.Ident:
		// A function named outside call position is a reference
		// (markRefNamed), not a data access.
		if _, ok := b.p.Info.Uses[ex].(*types.Func); ok {
			return
		}
		b.recordAccessInto(fi, s, ex, false, held, record)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		b.recordAccessInto(fi, s, e.(ast.Expr), false, held, record)
		b.scanIndexPartsInto(fi, s, e.(ast.Expr), held, record)
	case *ast.ParenExpr:
		b.scanExprInto(fi, s, ex.X, held, record)
	case *ast.UnaryExpr:
		if ex.Op == token.AND {
			// &x: address taken, not a value read.
			b.markAddrTaken(ex.X)
			b.scanIndexPartsInto(fi, s, ex.X, held, record)
			return
		}
		b.scanExprInto(fi, s, ex.X, held, record)
	case *ast.BinaryExpr:
		b.scanExprInto(fi, s, ex.X, held, record)
		b.scanExprInto(fi, s, ex.Y, held, record)
	case *ast.CallExpr:
		b.scanCall(fi, s, ex, held, record, false)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				b.scanExprInto(fi, s, kv.Value, held, record)
				continue
			}
			b.scanExprInto(fi, s, el, held, record)
		}
	case *ast.FuncLit:
		b.enterLit(fi, ex, false, false, held)
	case *ast.TypeAssertExpr:
		b.scanExprInto(fi, s, ex.X, held, record)
	case *ast.SliceExpr:
		b.scanExprInto(fi, s, ex.X, held, record)
		b.scanExprInto(fi, s, ex.Low, held, record)
		b.scanExprInto(fi, s, ex.High, held, record)
		b.scanExprInto(fi, s, ex.Max, held, record)
	case *ast.KeyValueExpr:
		b.scanExprInto(fi, s, ex.Value, held, record)
	}
}

// scanCall handles call expressions: same-package call edges, escaping
// function references, go-launch marking, and argument reads.
func (b *builder) scanCall(fi *FuncInfo, s ast.Stmt, call *ast.CallExpr, held map[string]bool, record func(*StmtSites, *Access), launched bool) {
	// Conversions look like calls; treat the operand as a read.
	if tv, ok := b.p.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			b.scanExprInto(fi, s, arg, held, record)
		}
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := b.p.Info.Uses[fun].(*types.Func); ok && fn.Pkg() == b.p.Pkg {
			b.calleeIdents[fun] = true
			if launched {
				b.goNamed[fn] = true
			} else {
				fi.Calls = append(fi.Calls, fn)
				b.callSites = append(b.callSites, callSite{fn: fn, caller: fi, held: b.pkgHeld(held)})
			}
		}
	case *ast.FuncLit:
		b.enterLit(fi, fun, launched, !launched, held)
	case *ast.SelectorExpr:
		if b.noteUnsupportedSync(fun) {
			break
		}
		if sel, ok := b.p.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			// Method call: the receiver is not scanned as a data access
			// (mutex/waitgroup calls are modeled by the shim wrappers;
			// other method receivers are a documented blind spot), but
			// index expressions inside it still evaluate in this thread.
			b.scanIndexPartsInto(fi, s, fun.X, held, record)
			b.calleeIdents[fun.Sel] = true
			if fn, ok := b.p.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() == b.p.Pkg && !launched {
				fi.Calls = append(fi.Calls, fn)
				// No callSite: methods stay interprocedural roots — they
				// may also be reached through interface dispatch or
				// method values, invisibly to this syntactic scan.
			}
		} else {
			// Package-qualified call (fmt.Println) or func-typed field.
			b.scanExprInto(fi, s, fun.X, held, record)
		}
	default:
		b.scanExprInto(fi, s, call.Fun, held, record)
	}
	for _, arg := range call.Args {
		b.scanExprInto(fi, s, arg, held, record)
	}
}

func (b *builder) scanGoCall(fi *FuncInfo, s ast.Stmt, call *ast.CallExpr, held map[string]bool) {
	b.scanCall(fi, s, call, held, func(ss *StmtSites, ac *Access) {
		ss.Pre = append(ss.Pre, ac)
	}, true)
}

func (b *builder) enterLit(parent *FuncInfo, lit *ast.FuncLit, goLaunched, immediate bool, held map[string]bool) {
	if b.litInfo[lit] != nil {
		return
	}
	fi := &FuncInfo{Lit: lit, Parent: parent, GoLaunched: goLaunched, Escapes: !goLaunched && !immediate}
	b.litInfo[lit] = fi
	b.allFns = append(b.allFns, fi)
	b.queue = append(b.queue, fi)
	if immediate && !goLaunched {
		// An immediately-invoked literal runs synchronously at the call
		// point: it inherits the caller's held locks like a direct call.
		b.callSites = append(b.callSites, callSite{lit: fi, caller: parent, held: b.pkgHeld(held)})
	}
	// Record captures: object uses inside the literal that are declared
	// outside it.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := b.p.Info.Uses[id].(*types.Var)
		if !ok || obj.Parent() == b.p.Pkg.Scope() || obj.Parent() == types.Universe {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			b.captured[obj] = true
		}
		return true
	})
}

// scanIndexParts records reads occurring inside the index/base
// sub-expressions of an lvalue (the lvalue itself is handled by its own
// access record).
func (b *builder) scanIndexParts(fi *FuncInfo, s ast.Stmt, lv ast.Expr, held map[string]bool) {
	b.scanIndexPartsInto(fi, s, lv, held, func(ss *StmtSites, ac *Access) {
		ss.Pre = append(ss.Pre, ac)
	})
}

func (b *builder) scanIndexPartsInto(fi *FuncInfo, s ast.Stmt, lv ast.Expr, held map[string]bool, record func(*StmtSites, *Access)) {
	switch ex := lv.(type) {
	case *ast.IndexExpr:
		b.scanExprInto(fi, s, ex.Index, held, record)
		b.scanIndexPartsInto(fi, s, ex.X, held, record)
	case *ast.SelectorExpr:
		b.scanIndexPartsInto(fi, s, ex.X, held, record)
	case *ast.StarExpr:
		b.scanIndexPartsInto(fi, s, ex.X, held, record)
	case *ast.ParenExpr:
		b.scanIndexPartsInto(fi, s, ex.X, held, record)
	}
}

func (b *builder) markAddrTaken(e ast.Expr) {
	if root := b.p.rootVar(e); root != nil {
		b.addrOf[root] = true
	}
}

// recordAccess registers one candidate lvalue access on statement s.
func (b *builder) recordAccess(fi *FuncInfo, s ast.Stmt, kind listKind, lv ast.Expr, write bool, held map[string]bool) {
	b.recordAccessInto(fi, s, lv, write, held, func(ss *StmtSites, ac *Access) {
		if kind == pre {
			ss.Pre = append(ss.Pre, ac)
		} else {
			ss.Post = append(ss.Post, ac)
		}
	})
}

func (b *builder) recordAccessInto(fi *FuncInfo, s ast.Stmt, lv ast.Expr, write bool, held map[string]bool, record func(*StmtSites, *Access)) {
	lv = unparen(lv)
	root := b.p.rootVar(lv)
	if root == nil {
		if lvalueShape(lv) {
			// A candidate-shaped lvalue rooted in a call or other
			// non-variable expression: opaque, cannot re-evaluate safely.
			ac := &Access{Lv: lv, Write: write, Opaque: true, Fn: fi}
			b.a.accesses = append(b.a.accesses, ac)
		}
		return
	}
	// Skip non-data roots: functions, channels, and the sync primitives
	// (their synchronization is traced via acq/rel/join events instead).
	switch root.Type().Underlying().(type) {
	case *types.Signature, *types.Chan:
		return
	}
	if isLockState(root.Type()) {
		return
	}
	ac := &Access{
		Lv:      lv,
		Root:    root,
		Write:   write,
		Deref:   b.derefShape(lv),
		SynHeld: heldList(held),
		Fn:      fi,
	}
	if cloneExpr(lv) != nil {
		ac.Addr = addrTarget(b.p, lv)
	} else {
		ac.Opaque = true
	}
	b.a.accesses = append(b.a.accesses, ac)
	record(b.sites(s), ac)
}

// rootVar walks to the leftmost identifier of an lvalue chain.
func (p *Package) rootVar(e ast.Expr) *types.Var {
	for {
		switch ex := unparen(e).(type) {
		case *ast.Ident:
			if v, ok := p.Info.Uses[ex].(*types.Var); ok {
				return v
			}
			if v, ok := p.Info.Defs[ex].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			e = ex.X
		case *ast.IndexExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		case *ast.SliceExpr:
			e = ex.X
		default:
			return nil
		}
	}
}

// derefShape reports whether the lvalue reaches its data through a
// pointer, slice or map — in which case the referent may be shared even
// when the root variable is a plain local.
func (b *builder) derefShape(lv ast.Expr) bool {
	switch ex := unparen(lv).(type) {
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		switch b.exprType(ex.X).(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			return true
		}
		return b.derefShape(ex.X)
	case *ast.SelectorExpr:
		if _, ok := b.exprType(ex.X).(*types.Pointer); ok {
			return true
		}
		return b.derefShape(ex.X)
	}
	return false
}

func (b *builder) exprType(e ast.Expr) types.Type {
	if tv, ok := b.p.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return types.Typ[types.Invalid]
}

// lvalueShape reports whether e looks like a memory access at all.
func lvalueShape(e ast.Expr) bool {
	switch unparen(e).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// addrTarget picks the expression whose address identifies the accessed
// location: the lvalue itself when addressable, the base map variable
// for (non-addressable) map elements. Returns nil when no stable
// address exists.
func addrTarget(p *Package, lv ast.Expr) ast.Expr {
	if ix, ok := unparen(lv).(*ast.IndexExpr); ok {
		if _, isMap := p.Info.Types[ix.X].Type.Underlying().(*types.Map); isMap {
			return addrTarget(p, ix.X)
		}
	}
	return lv
}

// ---- sync primitive detection ----

// shimWrappers maps the sync primitives the rewriter replaces with shim
// wrappers to the wrappers' names. Their operations are the only
// synchronization that reaches the checker, so a Mutex is the only lock
// that can prove an access protected, and values built from these types
// are lock state, not data.
var shimWrappers = map[string]string{"Mutex": "_veloMutex", "WaitGroup": "_veloWaitGroup"}

// syncName names the type of package sync that t is, "" for any other
// type. It goes by the type's identity, so sync may be imported under
// any name, dot-imported included.
func syncName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			return obj.Name()
		}
	}
	return ""
}

// wrapperOf names the shim type that replaces the type expression e,
// "" unless e denotes one of the shimWrappers.
func (p *Package) wrapperOf(e ast.Expr) string {
	if tv, ok := p.Info.Types[e]; ok && tv.IsType() {
		return shimWrappers[syncName(tv.Type)]
	}
	return ""
}

// isLockState reports the wrapped primitives and the types built from
// them by pointer, slice or array (e.g. []sync.Mutex).
func isLockState(t types.Type) bool {
	if shimWrappers[syncName(t)] != "" {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isLockState(u.Elem())
	case *types.Array:
		return isLockState(u.Elem())
	case *types.Pointer:
		return isLockState(u.Elem())
	}
	return false
}

// lockOp recognizes a path.Lock() / path.Unlock() call on a sync.Mutex
// and returns its stable path ("" when the receiver is dynamic, e.g. an
// index by a variable) plus whether the path is rooted at a
// package-level variable.
func (b *builder) lockOp(e ast.Expr) (path string, pkgLevel, locked, ok bool) {
	p := b.p
	call, isCall := unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false, false
	}
	// TryLock as a statement (result discarded) never happens in
	// practice; as an expression it is not a balanced section.
	name := sel.Sel.Name
	if (name != "Lock" && name != "Unlock") || syncName(recvType(p, sel)) != "Mutex" {
		return "", false, false, false
	}
	path = stablePath(sel.X)
	if path != "" && !b.a.ownSync[p.syncHolder(sel.X, p.Info.Selections[sel])] {
		// Only a mutex this package declares with a sync.Mutex type is
		// rewritten: any other one's Lock and Unlock emit no event, so they
		// prove nothing. (An unstable path proves nothing either way.)
		b.a.Unsupported = append(b.a.Unsupported,
			fmt.Sprintf("%s: sync.Mutex.%s of %s, which the rewrite does not wrap (synchronization invisible to the trace)",
				p.Position(sel.Pos()), name, path))
		return "", false, false, true
	}
	if root := p.rootVar(sel.X); root != nil && root.Parent() == p.Pkg.Scope() {
		pkgLevel = true
	}
	return path, pkgLevel, name == "Lock", true
}

func recvType(p *Package, sel *ast.SelectorExpr) types.Type {
	if tv, ok := p.Info.Types[sel.X]; ok && tv.Type != nil {
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return t
	}
	return types.Typ[types.Invalid]
}

// noteUnsupportedSync records sync primitives whose synchronization the
// front-end cannot translate into trace events.
func (b *builder) noteUnsupportedSync(sel *ast.SelectorExpr) bool {
	switch name := syncName(recvType(b.p, sel)); name {
	case "RWMutex", "Once", "Cond", "Pool", "Map":
		b.a.Unsupported = append(b.a.Unsupported,
			fmt.Sprintf("%s: sync.%s.%s (synchronization invisible to the trace)",
				b.p.Position(sel.Pos()), name, sel.Sel.Name))
		return true
	}
	return false
}

// stablePath renders an lvalue as a protection identity when it is built
// only from identifiers of package-level variables, field selections and
// constant indices; "" otherwise.
func stablePath(e ast.Expr) string {
	switch ex := unparen(e).(type) {
	case *ast.Ident:
		return ex.Name
	case *ast.SelectorExpr:
		base := stablePath(ex.X)
		if base == "" {
			return ""
		}
		return base + "." + ex.Sel.Name
	case *ast.IndexExpr:
		base := stablePath(ex.X)
		if base == "" {
			return ""
		}
		if lit, ok := unparen(ex.Index).(*ast.BasicLit); ok && lit.Kind == token.INT {
			return base + "[" + lit.Value + "]"
		}
		return ""
	case *ast.UnaryExpr:
		if ex.Op == token.AND {
			return stablePath(ex.X)
		}
	}
	return ""
}

// countSyncDecls counts declarations whose type mentions the rewritten
// sync primitives, for the report.
func (b *builder) countSyncDecls() {
	seen := map[*types.Var]bool{}
	for id, obj := range b.p.Info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || seen[v] || id.Name == "_" {
			continue
		}
		seen[v] = true
		t := v.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		check := func(t types.Type) {
			switch syncName(t) {
			case "Mutex":
				b.a.Mutexes++
			case "WaitGroup":
				b.a.WaitGroups++
			}
		}
		check(t)
		switch u := t.Underlying().(type) {
		case *types.Slice:
			check(u.Elem())
		case *types.Array:
			check(u.Elem())
		}
	}
}
