package instr

import (
	"go/types"
	"sort"
)

// Interprocedural entry-lock inference: a meet-over-call-sites fixpoint
// that computes, for every function body, the set of package-level
// mutexes held at *every* call site that can reach it. An access inside
// such a function is then protected by those locks even when its own
// body never mentions them — `func credit(n int) { ledger += n }` called
// only under `mu.Lock()` makes ledger lock-protected, which the
// per-function syntactic scan cannot see.
//
// The lattice is the powerset of package-level stable lock paths under
// intersection, with TOP = "not yet reached" and BOTTOM = the empty set.
// Functions that may be invoked through edges invisible to the syntactic
// scan are roots pinned to BOTTOM:
//
//   - go-launched functions and literals (a fresh goroutine holds nothing),
//   - escaping literals and named functions used as values (their call
//     sites are unknowable),
//   - methods (reachable through interface dispatch and method values),
//   - main and init (called by the runtime),
//   - every named function of a non-main package (exported or not, a
//     sibling file or test may call it),
//
// and call sites inside deferred expressions contribute the empty held
// set (they run at function exit, where the syntactic held set is
// unknowable). Each propagation step only intersects lock sets that are
// genuinely held on the corresponding call path, so the result is a
// sound under-approximation of the locks held on every entry; the full
// pruning-soundness argument is in DESIGN.md.

// lockFixpoint fills FuncInfo.Entry and Access.Held.
func (b *builder) lockFixpoint() {
	if b.opts.Intraprocedural {
		for _, ac := range b.a.accesses {
			ac.Held = ac.SynHeld
		}
		return
	}
	type state struct {
		reached bool
		set     map[string]bool
	}
	states := map[*FuncInfo]*state{}
	for _, fi := range b.allFns {
		states[fi] = &state{}
	}
	// A root starts with nothing held: a fresh goroutine (launched as a
	// literal or by name), or an invocation the scan cannot see.
	isRoot := func(fi *FuncInfo) bool {
		if fi.GoLaunched || !b.directOnly(fi) {
			return true
		}
		if fi.Decl == nil {
			return false
		}
		fn, _ := b.p.Info.Defs[fi.Decl.Name].(*types.Func)
		return b.goNamed[fn]
	}
	// join meets held into the state; returns whether anything changed.
	join := func(st *state, held []string) bool {
		if !st.reached {
			st.reached = true
			st.set = map[string]bool{}
			for _, l := range held {
				st.set[l] = true
			}
			return true
		}
		inHeld := map[string]bool{}
		for _, l := range held {
			inHeld[l] = true
		}
		changed := false
		for l := range st.set {
			if !inHeld[l] {
				delete(st.set, l)
				changed = true
			}
		}
		return changed
	}
	for _, fi := range b.allFns {
		if isRoot(fi) {
			join(states[fi], nil)
		}
	}
	entrySet := func(fi *FuncInfo) ([]string, bool) {
		st := states[fi]
		if st == nil || !st.reached {
			return nil, false
		}
		out := make([]string, 0, len(st.set))
		for l := range st.set {
			out = append(out, l)
		}
		sort.Strings(out)
		return out, true
	}
	for changed := true; changed; {
		changed = false
		for _, cs := range b.callSites {
			target := cs.lit
			if target == nil {
				target = b.a.fnOf[cs.fn]
			}
			if target == nil {
				continue
			}
			// Effective held set at the call = locks syntactically held
			// at the site plus the caller's own (already-proven) entry
			// set. An unreached caller is dead code so far: it
			// contributes nothing until something reaches it.
			callerEntry, callerReached := entrySet(cs.caller)
			if !callerReached {
				continue
			}
			eff := make([]string, 0, len(cs.held)+len(callerEntry))
			eff = append(eff, cs.held...)
			eff = append(eff, callerEntry...)
			if join(states[target], eff) {
				changed = true
			}
		}
	}
	for _, fi := range b.allFns {
		if e, ok := entrySet(fi); ok {
			fi.Entry = e
		}
	}
	// Held = SynHeld ∪ Entry(enclosing function). Unreached functions
	// keep their syntactic sets: they are dead code under the scanned
	// edges and stay conservatively instrumented.
	for _, ac := range b.a.accesses {
		if len(ac.Fn.Entry) == 0 {
			ac.Held = ac.SynHeld
			continue
		}
		set := map[string]bool{}
		for _, l := range ac.SynHeld {
			set[l] = true
		}
		for _, l := range ac.Fn.Entry {
			set[l] = true
		}
		out := make([]string, 0, len(set))
		for l := range set {
			out = append(out, l)
		}
		sort.Strings(out)
		ac.Held = out
	}
}
