// Package sema gives the formal semantics of Section 2 an executable form:
// the [STD STEP] interleaving relation for whole programs, whose
// per-operation premises are trace.WellFormed's rules. It also generates
// random well-formed programs and feasible interleavings of them, which
// drive the property-based differential tests of the analyses.
package sema

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/trace"
)

// Program is straight-line per-thread code: the local stores of the formal
// semantics reduced to a program counter per thread.
type Program map[trace.Tid][]trace.Op

// Interleave produces one feasible trace of the program: a random
// interleaving in which each step picks, with the given source of
// randomness, a thread whose next operation the trace so far allows (the
// [STD STEP] rule). If no thread's is allowed (deadlock), the partial
// trace is returned with ok=false.
func (p Program) Interleave(rng *rand.Rand) (tr trace.Trace, ok bool) {
	pc := map[trace.Tid]int{}
	var w trace.WellFormed
	tids := p.threads()
	total := 0
	for _, ops := range p {
		total += len(ops)
	}
	for len(tr) < total {
		var enabled []trace.Tid
		for _, t := range tids {
			if pc[t] < len(p[t]) && w.Allowed(p[t][pc[t]]) == nil {
				enabled = append(enabled, t)
			}
		}
		if len(enabled) == 0 {
			return tr, false // deadlock
		}
		t := enabled[rng.Intn(len(enabled))]
		op := p[t][pc[t]]
		pc[t]++
		if err := w.Step(op); err != nil {
			panic("sema: allowed operation refused: " + err.Error())
		}
		tr = append(tr, op)
	}
	return tr, true
}

// threads returns the program's thread ids in increasing order, so that
// iteration does not depend on map layout.
func (p Program) threads() []trace.Tid { return slices.Sorted(maps.Keys(p)) }

// GenConfig bounds the shape of random programs.
type GenConfig struct {
	Threads   int     // number of threads (≥1)
	OpsPerThd int     // operations per thread before begin/end insertion
	Vars      int     // shared variables
	Locks     int     // locks
	PAtomic   float64 // probability an access sequence is wrapped atomic
	PLock     float64 // probability an access is lock-protected
}

// DefaultGenConfig is a small configuration suitable for exhaustive-ish
// property testing.
func DefaultGenConfig() GenConfig {
	return GenConfig{Threads: 3, OpsPerThd: 6, Vars: 3, Locks: 2, PAtomic: 0.6, PLock: 0.4}
}

// RandomProgram generates a well-formed random program: per thread, a
// sequence of variable accesses, some wrapped in (possibly nested) atomic
// blocks and some protected by properly nested lock acquire/release pairs.
// Generated programs never deadlock under Interleave only if locks nest
// consistently; Interleave tolerates deadlocks by returning the partial
// trace, which is still a well-formed prefix.
func RandomProgram(rng *rand.Rand, cfg GenConfig) Program {
	prog := Program{}
	label := 0
	for ti := 0; ti < cfg.Threads; ti++ {
		t := trace.Tid(ti + 1)
		var ops []trace.Op
		budget := cfg.OpsPerThd
		for budget > 0 {
			n := 1 + rng.Intn(3)
			if n > budget {
				n = budget
			}
			budget -= n
			var body []trace.Op
			for i := 0; i < n; i++ {
				x := trace.Var(rng.Intn(cfg.Vars))
				if rng.Intn(2) == 0 {
					body = append(body, trace.Rd(t, x))
				} else {
					body = append(body, trace.Wr(t, x))
				}
			}
			if cfg.Locks > 0 && rng.Float64() < cfg.PLock {
				m := trace.Lock(rng.Intn(cfg.Locks))
				body = append([]trace.Op{trace.Acq(t, m)}, append(body, trace.Rel(t, m))...)
			}
			if rng.Float64() < cfg.PAtomic {
				label++
				l := trace.Label(labelName(label))
				body = append([]trace.Op{trace.Beg(t, l)}, append(body, trace.Fin(t))...)
				if rng.Float64() < 0.25 {
					// Nest inside a second block.
					label++
					l2 := trace.Label(labelName(label))
					body = append([]trace.Op{trace.Beg(t, l2)}, append(body, trace.Fin(t))...)
				}
			}
			ops = append(ops, body...)
		}
		prog[t] = ops
	}
	return prog
}

func labelName(n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	s := ""
	for n > 0 {
		s = string(letters[n%26]) + s
		n /= 26
	}
	return "blk_" + s
}

// RandomTrace generates one feasible trace of a random program. Retries a
// few times on deadlock; the returned trace is always well formed.
func RandomTrace(rng *rand.Rand, cfg GenConfig) trace.Trace {
	for attempt := 0; attempt < 10; attempt++ {
		prog := RandomProgram(rng, cfg)
		if tr, ok := prog.Interleave(rng); ok {
			return tr
		}
	}
	// Fall back to the partial trace of the last attempt.
	prog := RandomProgram(rng, cfg)
	tr, _ := prog.Interleave(rng)
	return tr
}

// String renders the program one thread per block, in trace syntax.
func (p Program) String() string {
	var b strings.Builder
	for _, t := range p.threads() {
		fmt.Fprintf(&b, "thread %d:\n", t)
		for _, op := range p[t] {
			fmt.Fprintf(&b, "  %s\n", op)
		}
	}
	return b.String()
}
