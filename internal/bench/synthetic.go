package bench

import (
	"repro/internal/trace"
)

// A synthetic loop-regime trace for the engine tests. Unlike the
// Table 1/2 workloads it does not run under the rr scheduler: it is
// emitted directly, so event counts in the millions are cheap and exactly
// reproducible. It interleaves two kinds of transaction round-robin:
//
//   - spin: worker threads poll a shared flag in long transactions of
//     identical reads, the loop regime the redundancy filter (Section 5)
//     targets;
//   - rmw: a transaction alternates read and write on a thread-private
//     variable, so adjacent accesses never share a kind.
//
// The trace is violation-free by construction (reads of a flag written
// before the fork; thread-private data), so measured time is pure
// analysis cost with no warning-path work in the window.

const (
	synWorkers   = 4  // polling threads, Tids 2..5
	synSpinReads = 64 // reads per spin transaction
	synRMWPairs  = 32 // read+write pairs per rmw transaction
	synFlag      = trace.Var(7)
)

// SyntheticMix builds a trace of roughly `events` operations: a main
// thread publishes a flag and forks four workers, which take turns
// running a spin and an rmw transaction each.
func SyntheticMix(events int) trace.Trace {
	tr := make(trace.Trace, 0, events+4*synWorkers+8)
	tr = synPrologue(tr)
	for len(tr) < events {
		for u := trace.Tid(2); u < 2+synWorkers; u++ {
			tr = synSpinTxn(tr, u)
			tr = synRMWTxn(tr, u)
		}
	}
	return synEpilogue(tr)
}

func synPrologue(tr trace.Trace) trace.Trace {
	tr = append(tr,
		trace.Beg(1, "main.publish"),
		trace.Wr(1, synFlag),
		trace.Fin(1))
	for u := trace.Tid(2); u < 2+synWorkers; u++ {
		tr = append(tr, trace.ForkOp(1, u))
	}
	return tr
}

func synEpilogue(tr trace.Trace) trace.Trace {
	for u := trace.Tid(2); u < 2+synWorkers; u++ {
		tr = append(tr, trace.JoinOp(1, u))
	}
	return tr
}

func synSpinTxn(tr trace.Trace, u trace.Tid) trace.Trace {
	tr = append(tr, trace.Beg(u, "spin.poll"))
	for i := 0; i < synSpinReads; i++ {
		tr = append(tr, trace.Rd(u, synFlag))
	}
	return append(tr, trace.Fin(u))
}

func synRMWTxn(tr trace.Trace, u trace.Tid) trace.Trace {
	x := trace.Var(16 + int32(u)) // thread-private accumulator
	tr = append(tr, trace.Beg(u, "rmw.update"))
	for i := 0; i < synRMWPairs; i++ {
		tr = append(tr, trace.Rd(u, x), trace.Wr(u, x))
	}
	return append(tr, trace.Fin(u))
}
