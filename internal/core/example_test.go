package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// ExampleCheckTrace checks the paper's first example: a read-modify-write
// interleaved with another thread's write.
func ExampleCheckTrace() {
	x := trace.Var(0)
	tr := trace.Trace{
		trace.Beg(1, "increment"),
		trace.Rd(1, x),
		trace.Wr(2, x),
		trace.Wr(1, x),
		trace.Fin(1),
	}
	res := core.CheckTrace(tr, core.Options{})
	fmt.Println("serializable:", res.Serializable)
	fmt.Println("blamed:", res.Warnings[0].Method())
	// Output:
	// serializable: false
	// blamed: increment
}

// ExampleNew drives the online checker one operation at a time, the way
// an instrumentation framework feeds it.
func ExampleNew() {
	x := trace.Var(0)
	c := core.New(core.Options{})
	for _, op := range []trace.Op{
		trace.Beg(1, "get"),
		trace.Rd(1, x),
		trace.Fin(1),
		trace.Wr(2, x),
	} {
		if w := c.Step(op); w != nil {
			fmt.Println("violation at", w.Op)
		}
	}
	fmt.Println("warnings:", len(c.Warnings()))
	fmt.Println("nodes allocated:", c.Snapshot().Stats.Allocated)
	// Output:
	// warnings: 0
	// nodes allocated: 1
}

// ExampleCheckTrace_nested shows blame assignment with nested atomic
// blocks (Section 4.3): blocks containing both the root and target
// operations are refuted; the inner block opened in between is spared.
func ExampleCheckTrace_nested() {
	x := trace.Var(0)
	tr := trace.Trace{
		trace.Beg(1, "p"),
		trace.Beg(1, "q"),
		trace.Rd(1, x),
		trace.Wr(2, x),
		trace.Beg(1, "r"),
		trace.Wr(1, x),
		trace.Fin(1), trace.Fin(1), trace.Fin(1),
	}
	res := core.CheckTrace(tr, core.Options{})
	fmt.Println("refuted:", res.Warnings[0].Refuted)
	// Output:
	// refuted: [p q]
}
