package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
	"repro/internal/serial"
	"repro/internal/trace"
)

// Seeded inputs and their reference verdicts. Every workload's inputs
// depend only on the seed; the program under test sees only the bytes
// generated here. The structural parameters that set how much work an
// event costs (thread count, transaction mix, share of variables beyond
// the decision cache) are fixed, and the seed draws the order in which
// they occur, so runs on different seeds measure the same regime.

// input is one trace to check, in every form a workload needs, with the
// verdict a correct checker must reach on it.
type input struct {
	name string
	ops  trace.Trace
	bin  []byte
	ref  reference
}

// reference is the expected outcome of checking an input.
type reference struct {
	ops          int
	serializable bool
	warnings     int
	firstOpIndex int // -1 when there is no warning
}

const (
	loopWorkers   = 4  // worker threads, tids 2..5
	loopSpinReads = 64 // reads per spin transaction
	loopSweeps    = 8  // passes over the stripe per scan transaction
	loopStripe    = 8  // variables per scan stripe
	loopStripes   = 32 // stripes in the shared table
	loopRMWPairs  = 32 // read+write pairs per rmw transaction
	loopPrivate   = 8  // private accumulators per worker
	loopFlag      = trace.Var(7)
	loopTableBase = trace.Var(1024)
	// Stripes at and above loopFarStripe live beyond the engines'
	// per-variable decision cache (ids >= core.PrefilterVarLimit), so
	// their repeats take the filter's full-validation path.
	loopFarStripe = 28
	loopFarBase   = trace.Var(core.PrefilterVarLimit + 4096)
	loopPrivBase  = trace.Var(256)
)

// loopTrace builds a violation-free loop-regime trace of about n events:
// a main thread publishes a flag and a table, forks the workers, and the
// workers run spin / scan / read-modify-write transactions whose
// operations interleave in seeded bursts. Workers only read what main
// wrote before the fork and only write thread-private variables, so no
// interleaving can close a cycle.
func loopTrace(rng *rand.Rand, n int) trace.Trace {
	tr := make(trace.Trace, 0, n+256)
	tr = append(tr, trace.Beg(1, "main.publish"), trace.Wr(1, loopFlag))
	for s := 0; s < loopStripes; s++ {
		for i := 0; i < loopStripe; i++ {
			tr = append(tr, trace.Wr(1, stripeVar(s, i)))
		}
	}
	tr = append(tr, trace.Fin(1))
	for u := trace.Tid(2); u < 2+loopWorkers; u++ {
		tr = append(tr, trace.ForkOp(1, u))
	}
	pending := make([][]trace.Op, loopWorkers)
	for len(tr) < n {
		w := rng.Intn(loopWorkers)
		if len(pending[w]) == 0 {
			pending[w] = loopTxn(rng, trace.Tid(2+w), pending[w])
		}
		burst := 1 + rng.Intn(16)
		if burst > len(pending[w]) {
			burst = len(pending[w])
		}
		tr = append(tr, pending[w][:burst]...)
		pending[w] = pending[w][burst:]
	}
	for w := range pending {
		tr = append(tr, pending[w]...)
	}
	for u := trace.Tid(2); u < 2+loopWorkers; u++ {
		tr = append(tr, trace.JoinOp(1, u))
	}
	return tr
}

func stripeVar(s, i int) trace.Var {
	if s >= loopFarStripe {
		return loopFarBase + trace.Var((s-loopFarStripe)*loopStripe+i)
	}
	return loopTableBase + trace.Var(s*loopStripe+i)
}

// loopTxn appends one whole transaction of thread u to buf. The mix is
// 40% spin, 40% scan, 20% read-modify-write.
func loopTxn(rng *rand.Rand, u trace.Tid, buf []trace.Op) []trace.Op {
	switch k := rng.Intn(10); {
	case k < 4:
		buf = append(buf, trace.Beg(u, "spin.poll"))
		for i := 0; i < loopSpinReads; i++ {
			buf = append(buf, trace.Rd(u, loopFlag))
		}
	case k < 8:
		s := rng.Intn(loopStripes)
		buf = append(buf, trace.Beg(u, "scan.sweep"))
		for p := 0; p < loopSweeps; p++ {
			for i := 0; i < loopStripe; i++ {
				buf = append(buf, trace.Rd(u, stripeVar(s, i)))
			}
		}
	default:
		x := loopPrivBase + trace.Var(int(u)*loopPrivate+rng.Intn(loopPrivate))
		buf = append(buf, trace.Beg(u, "rmw.update"))
		for i := 0; i < loopRMWPairs; i++ {
			buf = append(buf, trace.Rd(u, x), trace.Wr(u, x))
		}
	}
	return append(buf, trace.Fin(u))
}

// denseCorpus records each of the fifteen Table 1 programs under the
// deterministic scheduler, `recordings` times with schedules drawn from
// the seed, at the given scale: short transactions, real contention,
// thousands of warnings, few filterable events.
func denseCorpus(seed int64, recordings, scale int) ([]*input, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*input
	for _, w := range bench.All() {
		w := w
		for r := 0; r < recordings; r++ {
			rep := rr.Run(rr.Options{Seed: rng.Int63(), Record: true}, func(t *rr.Thread) {
				w.Body(t, bench.Params{Scale: scale})
			})
			if rep.Deadlocked || rep.Truncated {
				return nil, fmt.Errorf("recording %s: deadlocked=%v truncated=%v", w.Name, rep.Deadlocked, rep.Truncated)
			}
			in, err := newInput(fmt.Sprintf("%s#%d", w.Name, r), rep.Trace)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// newInput encodes tr and computes its reference verdict.
func newInput(name string, tr trace.Trace) (*input, error) {
	var buf bytes.Buffer
	if err := trace.MarshalBinary(&buf, tr); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	ref, err := referenceFor(tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &input{name: name, ops: tr, bin: buf.Bytes(), ref: ref}, nil
}

// oracleMaxOps is the largest trace handed to the offline oracle, whose
// cost grows with the square of the trace (100 000 operations take it
// close to a minute; 1024 take it a few milliseconds).
const oracleMaxOps = 1024

// referenceFor computes the verdict a correct checker must reach. The
// warning count and first warning position come from an optimized pass
// with the redundancy filter off. The serializable flag comes from an
// implementation that shares no code with that pass — the offline oracle
// of internal/serial where the trace is small enough for it, the Figure 2
// engine otherwise — and the two must agree, or the input is unusable.
func referenceFor(tr trace.Trace) (reference, error) {
	var ser bool
	if len(tr) <= oracleMaxOps {
		ser, _ = serial.Check(tr)
	} else {
		ser = core.CheckTrace(tr, core.Options{Engine: core.Basic, NoFilter: true, FirstOnly: true}).Serializable
	}
	res := core.CheckTrace(tr, core.Options{NoFilter: true})
	if res.Serializable != ser {
		return reference{}, fmt.Errorf("reference disagreement: oracle serializable=%v, engine serializable=%v", ser, res.Serializable)
	}
	ref := reference{ops: len(tr), serializable: ser, warnings: len(res.Warnings), firstOpIndex: -1}
	if len(res.Warnings) > 0 {
		ref.firstOpIndex = res.Warnings[0].OpIndex
	}
	return ref, nil
}

// matches reports how a checked result differs from the reference, or ""
// when it agrees.
func (r reference) matches(res *core.Result, ops int) string {
	if res == nil {
		return "no result"
	}
	first := -1
	if len(res.Warnings) > 0 {
		first = res.Warnings[0].OpIndex
	}
	switch {
	case ops != r.ops:
		return fmt.Sprintf("checked %d ops, want %d", ops, r.ops)
	case res.Serializable != r.serializable:
		return fmt.Sprintf("serializable=%v, want %v", res.Serializable, r.serializable)
	case len(res.Warnings) != r.warnings:
		return fmt.Sprintf("%d warnings, want %d", len(res.Warnings), r.warnings)
	case first != r.firstOpIndex:
		return fmt.Sprintf("first warning at op %d, want %d", first, r.firstOpIndex)
	}
	return ""
}

// moduleRoot walks up from the working directory to the directory that
// holds go.mod: the repository root under `go run ./benchmark`, and the
// parent of the package directory under `go test`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}
