// Package trace defines the operation and trace model of multithreaded
// executions from Section 2 of the Velodrome paper (PLDI 2008).
//
// A trace is a sequence of operations: reads and writes of shared
// variables, lock acquires and releases, atomic-block begin/end markers,
// and thread fork/join events. Fork and join are not part of the paper's
// core calculus but are modeled (per its footnote 2) as conflicting
// accesses on a per-thread token variable; see Trace.Desugar.
package trace

import (
	"fmt"
	"strings"
)

// Tid identifies a thread. Thread ids are small non-negative integers.
type Tid int32

// Var identifies a shared variable.
type Var int32

// Lock identifies a lock.
type Lock int32

// Label identifies an atomic block for error reporting ([INS ENTER]'s l).
// An Op carries it as a LabelID into a Labels table.
type Label string

// Kind enumerates operation kinds.
type Kind uint8

// Operation kinds.
const (
	// Read is rd(t, x): thread t reads shared variable x.
	Read Kind = iota
	// Write is wr(t, x): thread t writes shared variable x.
	Write
	// Acquire is acq(t, m): thread t acquires lock m.
	Acquire
	// Release is rel(t, m): thread t releases lock m.
	Release
	// Begin is begin_l(t): thread t enters an atomic block labeled l.
	Begin
	// End is end(t): thread t exits its innermost atomic block.
	End
	// Fork is fork(t, u): thread t starts thread u.
	Fork
	// Join is join(t, u): thread t waits for thread u to finish.
	Join
)

var kindNames = [...]string{
	Read:    "rd",
	Write:   "wr",
	Acquire: "acq",
	Release: "rel",
	Begin:   "begin",
	End:     "end",
	Fork:    "fork",
	Join:    "join",
}

// String returns the paper's concrete syntax name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is a single operation by one thread. The meaning of Target depends on
// Kind: a Var for Read/Write, a Lock for Acquire/Release, the child/joined
// Tid for Fork/Join, and unused for Begin/End. An Op is 16 bytes and holds
// no pointer, so the collector never scans a slice of them.
type Op struct {
	Kind   Kind
	Thread Tid
	Target int32

	// Label is used by Begin only: the block's label, as an id into the
	// table of whoever produced the op (see Labels).
	Label LabelID
}

// Var returns the variable accessed by a Read or Write.
func (o Op) Var() Var { return Var(o.Target) }

// Lock returns the lock operated on by an Acquire or Release.
func (o Op) Lock() Lock { return Lock(o.Target) }

// Other returns the other thread named by a Fork or Join.
func (o Op) Other() Tid { return Tid(o.Target) }

// String renders the operation in the paper's concrete syntax,
// e.g. "rd(1,x3)" or "begin.m(2)", naming a Begin's label through the
// process-wide table. An op from a table of its own renders with Format.
func (o Op) String() string { return o.Format(processLabels) }

// Format is String with a Begin's label named through labels, the table
// the op's producer minted its id in.
func (o Op) Format(labels *Labels) string {
	switch o.Kind {
	case Read, Write:
		return fmt.Sprintf("%s(%d,x%d)", o.Kind, o.Thread, o.Target)
	case Acquire, Release:
		return fmt.Sprintf("%s(%d,m%d)", o.Kind, o.Thread, o.Target)
	case Begin:
		if l := labels.Name(o.Label); l != "" {
			return fmt.Sprintf("begin.%s(%d)", l, o.Thread)
		}
		return fmt.Sprintf("begin(%d)", o.Thread)
	case End:
		return fmt.Sprintf("end(%d)", o.Thread)
	case Fork, Join:
		return fmt.Sprintf("%s(%d,t%d)", o.Kind, o.Thread, o.Target)
	}
	return fmt.Sprintf("%s(%d,%d)", o.Kind, o.Thread, o.Target)
}

// Convenience constructors.

// Rd returns rd(t, x).
func Rd(t Tid, x Var) Op { return Op{Kind: Read, Thread: t, Target: int32(x)} }

// Wr returns wr(t, x).
func Wr(t Tid, x Var) Op { return Op{Kind: Write, Thread: t, Target: int32(x)} }

// Acq returns acq(t, m).
func Acq(t Tid, m Lock) Op { return Op{Kind: Acquire, Thread: t, Target: int32(m)} }

// Rel returns rel(t, m).
func Rel(t Tid, m Lock) Op { return Op{Kind: Release, Thread: t, Target: int32(m)} }

// Beg returns begin_l(t), with l interned in the process-wide table.
func Beg(t Tid, l Label) Op { return Op{Kind: Begin, Thread: t, Label: processLabels.Intern(l)} }

// Fin returns end(t).
func Fin(t Tid) Op { return Op{Kind: End, Thread: t} }

// ForkOp returns fork(t, u).
func ForkOp(t, u Tid) Op { return Op{Kind: Fork, Thread: t, Target: int32(u)} }

// JoinOp returns join(t, u).
func JoinOp(t, u Tid) Op { return Op{Kind: Join, Thread: t, Target: int32(u)} }

// Trace is a sequence of operations describing one interleaved execution.
type Trace []Op

// String renders one operation per line.
func (tr Trace) String() string {
	var b strings.Builder
	for i, op := range tr {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(op.String())
	}
	return b.String()
}

// Threads returns the set of thread ids appearing in the trace, sorted.
func (tr Trace) Threads() []Tid {
	seen := map[Tid]bool{}
	var out []Tid
	add := func(t Tid) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, op := range tr {
		add(op.Thread)
		if op.Kind == Fork || op.Kind == Join {
			add(op.Other())
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// forkVarBase offsets the synthetic token variables used by Desugar so they
// cannot collide with program variables, which are expected to be small
// non-negative ids.
const forkVarBase = 1 << 24

// TokenVar reports whether x is one of Desugar's synthetic fork/join
// token variables, and if so which thread it orders and whether it is the
// join (vs. fork) token. Diagnostic renderers use it to print token
// accesses by their meaning instead of as a raw variable id.
func TokenVar(x Var) (other Tid, join bool, ok bool) {
	if x < forkVarBase {
		return 0, false, false
	}
	off := int32(x - forkVarBase)
	return Tid(off / 2), off%2 == 1, true
}

// Desugar rewrites Fork and Join operations into conflicting accesses on a
// synthetic per-thread token variable, following footnote 2 of the paper:
// fork(t,u) becomes wr(t, tok_u) and the spawned thread's first event is
// rd(u, tok_u); join(t,u) becomes rd(t, tok_u) preceded by the child's final
// wr(u, tok_u). The rewrite keeps the analyses' core calculus closed over
// rd/wr/acq/rel/begin/end while preserving the induced happens-before order.
func (tr Trace) Desugar() Trace {
	out := make(Trace, 0, len(tr)+8)
	for _, op := range tr {
		if op.Kind == Fork || op.Kind == Join {
			subs := DesugarOp(op)
			out = append(out, subs[:]...)
		} else {
			out = append(out, op)
		}
	}
	return out
}

// DesugarOp is Desugar for a single Fork or Join: the two token-variable
// accesses that stand for it, in trace order, as an array so that the
// engines, which step them in place of the operation, allocate nothing.
func DesugarOp(op Op) [2]Op {
	u := op.Other()
	tok := Var(forkVarBase + 2*int32(u))
	if op.Kind == Fork {
		return [2]Op{Wr(op.Thread, tok), Rd(u, tok)}
	}
	return [2]Op{Wr(u, tok+1), Rd(op.Thread, tok+1)}
}

// Stats summarizes a trace: operation counts per kind and the numbers of
// threads, variables and locks touched.
type Stats struct {
	Ops     int
	ByKind  [8]int
	Threads int
	Vars    int
	Locks   int
}

// Summarize computes trace statistics in one pass.
func Summarize(tr Trace) Stats {
	st := Stats{Ops: len(tr)}
	threads := map[Tid]bool{}
	vars := map[Var]bool{}
	locks := map[Lock]bool{}
	for _, op := range tr {
		if int(op.Kind) < len(st.ByKind) {
			st.ByKind[op.Kind]++
		}
		threads[op.Thread] = true
		switch op.Kind {
		case Read, Write:
			vars[op.Var()] = true
		case Acquire, Release:
			locks[op.Lock()] = true
		case Fork, Join:
			threads[op.Other()] = true
		}
	}
	st.Threads, st.Vars, st.Locks = len(threads), len(vars), len(locks)
	return st
}
