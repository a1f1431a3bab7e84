package core

import (
	"math/rand"
	"testing"

	"repro/internal/sema"
	"repro/internal/serial"
	"repro/internal/trace"
)

// labelOf names a Begin's label: these traces are built in code, so their
// ids index the process-wide table.
func labelOf(op trace.Op) trace.Label { return trace.ProcessLabels().Name(op.Label) }

// stripIgnored removes begin/end pairs of ignored labels from a trace —
// the reference semantics of the atomicity specification: an exempted
// block is as if it were never marked atomic.
func stripIgnored(tr trace.Trace, ignore map[trace.Label]bool) trace.Trace {
	var out trace.Trace
	type ent struct{ ignored bool }
	stacks := map[trace.Tid][]ent{}
	for _, op := range tr {
		switch op.Kind {
		case trace.Begin:
			ig := ignore[labelOf(op)]
			stacks[op.Thread] = append(stacks[op.Thread], ent{ig})
			if ig {
				continue
			}
		case trace.End:
			st := stacks[op.Thread]
			top := st[len(st)-1]
			stacks[op.Thread] = st[:len(st)-1]
			if top.ignored {
				continue
			}
		}
		out = append(out, op)
	}
	return out
}

// TestIgnoreSpecMatchesStripping: checking a trace with blocks exempted
// must give exactly the verdict of checking the trace with those block
// markers removed.
func TestIgnoreSpecMatchesStripping(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := sema.DefaultGenConfig()
	for i := 0; i < 300; i++ {
		tr := sema.RandomTrace(rng, cfg)
		// Exempt a pseudo-random subset of the labels present.
		ignore := map[trace.Label]bool{}
		for _, op := range tr {
			if op.Kind == trace.Begin && (len(labelOf(op))+i)%2 == 0 {
				ignore[labelOf(op)] = true
			}
		}
		got := CheckTrace(tr, Options{Ignore: ignore})
		want := CheckTrace(stripIgnored(tr, ignore), Options{})
		if got.Serializable != want.Serializable {
			t.Fatalf("iter %d: spec=%v stripped=%v\nignore=%v\n%s",
				i, got.Serializable, want.Serializable, ignore, tr)
		}
		oracle, _ := serial.Check(stripIgnored(tr, ignore))
		if got.Serializable != oracle {
			t.Fatalf("iter %d: spec=%v oracle=%v", i, got.Serializable, oracle)
		}
	}
}

// TestIgnoreOutermostUnblocksInner: with the outer method exempted, an
// inner checked block becomes the transaction.
func TestIgnoreOutermostUnblocksInner(t *testing.T) {
	x := trace.Var(0)
	tr := trace.Trace{
		trace.Beg(1, "outer"),
		trace.Rd(1, x), // unary under the spec: outer is exempt
		trace.Wr(2, x),
		trace.Beg(1, "inner"),
		trace.Rd(1, x),
		trace.Wr(2, x),
		trace.Wr(1, x), // violates inner
		trace.Fin(1),
		trace.Fin(1),
	}
	// Checking everything blames outer.
	all := CheckTrace(tr, Options{})
	if all.Serializable || all.Warnings[0].Method() != "outer" {
		t.Fatalf("full check: %+v", all.Warnings)
	}
	// Exempting outer blames inner instead.
	spec := CheckTrace(tr, Options{Ignore: map[trace.Label]bool{"outer": true}})
	if spec.Serializable {
		t.Fatal("inner violation missed under the spec")
	}
	if got := spec.Warnings[0].Method(); got != "inner" {
		t.Fatalf("blamed %q, want inner", got)
	}
	// Exempting both: everything is unary — serializable.
	none := CheckTrace(tr, Options{Ignore: map[trace.Label]bool{"outer": true, "inner": true}})
	if !none.Serializable {
		t.Fatal("with no checked blocks the trace must be serializable")
	}
}

// TestIgnoreWithNoMerge: the spec composes with the Table 1 no-merge
// configuration.
func TestIgnoreWithNoMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		tr := sema.RandomTrace(rng, sema.DefaultGenConfig())
		ignore := map[trace.Label]bool{}
		for _, op := range tr {
			if op.Kind == trace.Begin && len(labelOf(op))%2 == 1 {
				ignore[labelOf(op)] = true
			}
		}
		a := CheckTrace(tr, Options{Ignore: ignore})
		b := CheckTrace(tr, Options{Ignore: ignore, NoMerge: true})
		if a.Serializable != b.Serializable {
			t.Fatalf("iter %d: merge changed spec verdict", i)
		}
	}
}

// TestIgnoreSpecBasicEngine: the Figure 2 engine honors the spec too, and
// agrees with the optimized engine on random traces with random specs.
func TestIgnoreSpecBasicEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		tr := sema.RandomTrace(rng, sema.DefaultGenConfig())
		ignore := map[trace.Label]bool{}
		for _, op := range tr {
			if op.Kind == trace.Begin && (len(labelOf(op))+i)%2 == 0 {
				ignore[labelOf(op)] = true
			}
		}
		opt := CheckTrace(tr, Options{Ignore: ignore})
		bas := CheckTrace(tr, Options{Ignore: ignore, Engine: Basic})
		if opt.Serializable != bas.Serializable {
			t.Fatalf("iter %d: engines disagree under spec\n%s", i, tr)
		}
		want := CheckTrace(stripIgnored(tr, ignore), Options{})
		if bas.Serializable != want.Serializable {
			t.Fatalf("iter %d: basic spec=%v stripped=%v", i, bas.Serializable, want.Serializable)
		}
	}
}
