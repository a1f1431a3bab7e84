// Package repro's root benchmark harness regenerates every evaluation
// artifact of the Velodrome paper (PLDI 2008) as a testing.B benchmark;
// see DESIGN.md's experiment index for the mapping.
//
//	go test -bench=Table1 -benchmem .      Table 1 (per-backend slowdowns)
//	go test -bench=Table2 .                Table 2 (warnings per benchmark)
//	go test -bench=Injection .             the 30%→70% scheduling study
//	go test -bench=Ablation .              merge/GC design-choice ablations
//
// The absolute numbers differ from the paper's JVM testbed; the claims
// that reproduce are the ratios (Velodrome competitive with Eraser and
// the Atomizer) and the graph statistics (GC keeps a few dozen nodes
// alive; merging removes up to four orders of magnitude of allocation).
package repro_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/rr"
	"repro/internal/sema"
	"repro/internal/trace"

	"math/rand"
)

// backends are the four instrumented configurations of Table 1 plus the
// uninstrumented base.
var backends = []struct {
	name string
	mk   func() rr.Backend
}{
	{"Base", func() rr.Backend { return nil }},
	{"Empty", func() rr.Backend { return &rr.Empty{} }},
	{"Eraser", func() rr.Backend { return rr.NewEraser() }},
	{"Atomizer", func() rr.Backend { return rr.NewAtomizer() }},
	{"Velodrome", func() rr.Backend { return rr.NewVelodrome(core.Options{}) }},
}

// BenchmarkTable1Timing is the timing half of Table 1: each sub-benchmark
// is one (program, back-end) cell; the slowdown column is this cell's
// time divided by the program's Base cell.
func BenchmarkTable1Timing(b *testing.B) {
	for _, w := range bench.All() {
		for _, be := range backends {
			b.Run(w.Name+"/"+be.name, func(b *testing.B) {
				events := 0
				for i := 0; i < b.N; i++ {
					rep := rr.Run(rr.Options{Seed: 1, Backend: be.mk()}, func(t *rr.Thread) {
						w.Body(t, bench.Params{Scale: 2})
					})
					events = rep.Events
				}
				b.ReportMetric(float64(events), "events/run")
			})
		}
	}
}

// BenchmarkTable1Nodes is the node-statistics half of Table 1: the
// transactions Allocated and Max Alive columns, without and with the
// merge optimization of Section 4.2.
func BenchmarkTable1Nodes(b *testing.B) {
	for _, w := range bench.All() {
		for _, mode := range []struct {
			name    string
			noMerge bool
		}{{"WithoutMerge", true}, {"WithMerge", false}} {
			b.Run(w.Name+"/"+mode.name, func(b *testing.B) {
				var allocated, maxAlive int
				for i := 0; i < b.N; i++ {
					velo := rr.NewVelodrome(core.Options{NoMerge: mode.noMerge})
					rr.Run(rr.Options{Seed: 1, Backend: velo}, func(t *rr.Thread) {
						w.Body(t, bench.Params{Scale: 2})
					})
					st := velo.Checker.Snapshot().Stats
					allocated, maxAlive = st.Allocated, st.MaxAlive
				}
				b.ReportMetric(float64(allocated), "allocated")
				b.ReportMetric(float64(maxAlive), "maxAlive")
			})
		}
	}
}

// BenchmarkTable2 runs each benchmark once under Velodrome and the
// Atomizer simultaneously (one seed of the five-run experiment) and
// reports the warning counts as metrics.
func BenchmarkTable2(b *testing.B) {
	for _, w := range bench.All() {
		b.Run(w.Name, func(b *testing.B) {
			var velo, atom int
			for i := 0; i < b.N; i++ {
				res := exper.RunBoth(w, 1, bench.Params{}, false)
				velo, atom = len(res.VeloMethods), len(res.AtomMethods)
			}
			b.ReportMetric(float64(velo), "velodromeMethods")
			b.ReportMetric(float64(atom), "atomizerMethods")
		})
	}
}

// BenchmarkInjection is one trial of the Section 6 defect-injection
// study, plain and adversarial.
func BenchmarkInjection(b *testing.B) {
	w := bench.ByName("elevator")
	inj := w.InjectionPoints[0]
	for _, mode := range []struct {
		name        string
		adversarial bool
	}{{"Plain", false}, {"Adversarial", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				velo := rr.NewVelodrome(core.Options{})
				opts := rr.Options{Seed: int64(i + 1), Backend: velo}
				if mode.adversarial {
					adv := rr.NewAtomizerAdvisor()
					opts.Backend = rr.Multi{velo, adv}
					opts.Advisor = adv
				}
				rr.Run(opts, func(t *rr.Thread) {
					w.Body(t, bench.Params{Disabled: map[string]bool{inj.Point: true}})
				})
			}
		})
	}
}

// BenchmarkFigIntroTrace checks the introduction's trace diagram (the
// A ⇒ B′ ⇒ C′ ⇒ A cycle) end to end: the canonical tiny input.
func BenchmarkFigIntroTrace(b *testing.B) {
	x, y, z := trace.Var(0), trace.Var(1), trace.Var(2)
	m := trace.Lock(0)
	tr := trace.Trace{
		trace.Beg(1, "A"), trace.Acq(1, m), trace.Rel(1, m),
		trace.Beg(2, "B"), trace.Wr(2, z), trace.Fin(2),
		trace.Beg(2, "B'"), trace.Acq(2, m), trace.Wr(2, y), trace.Rel(2, m), trace.Fin(2),
		trace.Beg(3, "C'"), trace.Rd(3, y), trace.Wr(3, x), trace.Fin(3),
		trace.Rd(1, x), trace.Fin(1),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.CheckTrace(tr, core.Options{})
		if res.Serializable {
			b.Fatal("intro trace must be non-serializable")
		}
	}
}

// BenchmarkFigSetAdd drives the Section 5 error-graph example (Set.add).
func BenchmarkFigSetAdd(b *testing.B) {
	elems := trace.Var(0)
	m := trace.Lock(0)
	var tr trace.Trace
	add := func(t trace.Tid) trace.Trace {
		return trace.Trace{
			trace.Beg(t, "Set.add"),
			trace.Acq(t, m), trace.Rd(t, elems), trace.Rel(t, m),
			trace.Acq(t, m), trace.Rd(t, elems), trace.Wr(t, elems), trace.Rel(t, m),
			trace.Fin(t),
		}
	}
	a1, a2 := add(1), add(2)
	tr = append(tr, a1[:4]...)
	tr = append(tr, a2...)
	tr = append(tr, a1[4:]...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.CheckTrace(tr, core.Options{})
		if res.Serializable || res.Warnings[0].Method() != "Set.add" {
			b.Fatal("Set.add must be blamed")
		}
	}
}

// BenchmarkCheckerThroughput measures raw events/second of the online
// analysis on a long synthetic trace (the quantity behind the slowdown
// columns).
func BenchmarkCheckerThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := sema.GenConfig{Threads: 4, OpsPerThd: 2000, Vars: 16, Locks: 4, PAtomic: 0.5, PLock: 0.4}
	tr := sema.RandomTrace(rng, cfg)
	for _, eng := range []struct {
		name string
		opts core.Options
	}{
		{"Optimized", core.Options{}},
		{"Basic", core.Options{Engine: core.Basic}},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.SetBytes(int64(len(tr)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.CheckTrace(tr, eng.opts)
			}
			b.ReportMetric(float64(len(tr)), "ops/trace")
		})
	}
}

// BenchmarkCheckDense is one pass of the ledger's check-dense workload
// (benchmark/check.go) as a testing.B: the fifteen Table 1 programs, four
// seeded recordings each at scale 5 — about 290 k events and 14 k
// warnings — binary-encoded and streamed through the decoder into the
// default engine. B/op and allocs/op are per pass; the bytes are the
// output (a Warning, its Cycle and the cycle's edges per warning, a
// TxnMeta per transaction), written into chunks, and per check a 16 KiB
// batch buffer and a read buffer no larger than the recording.
func BenchmarkCheckDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var inputs [][]byte
	events := 0
	for _, w := range bench.All() {
		for r := 0; r < 4; r++ {
			rep := rr.Run(rr.Options{Seed: rng.Int63(), Record: true}, func(t *rr.Thread) {
				w.Body(t, bench.Params{Scale: 5})
			})
			var buf bytes.Buffer
			if err := trace.MarshalBinary(&buf, rep.Trace); err != nil {
				b.Fatal(err)
			}
			inputs = append(inputs, buf.Bytes())
			events += len(rep.Trace)
		}
	}
	b.ReportAllocs()
	warnings := 0
	for b.Loop() {
		warnings = 0
		for _, in := range inputs {
			res, _, err := core.CheckStream(trace.NewDecoder(bytes.NewReader(in)), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			warnings += len(res.Warnings)
		}
	}
	b.ReportMetric(float64(events), "events/pass")
	b.ReportMetric(float64(warnings), "warnings/pass")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}

// BenchmarkAblationMerge quantifies the merge optimization (Section 4.2):
// same trace, with and without node merging.
func BenchmarkAblationMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	// Mostly non-transactional operations: merge's best case (multiset).
	cfg := sema.GenConfig{Threads: 4, OpsPerThd: 1500, Vars: 8, Locks: 2, PAtomic: 0.1, PLock: 0.3}
	tr := sema.RandomTrace(rng, cfg)
	for _, mode := range []struct {
		name    string
		noMerge bool
	}{{"WithMerge", false}, {"WithoutMerge", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var allocated int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := core.CheckTrace(tr, core.Options{NoMerge: mode.noMerge})
				allocated = res.Stats.Allocated
			}
			b.ReportMetric(float64(allocated), "nodes")
		})
	}
}

// BenchmarkAblationGC quantifies reference-counting garbage collection
// (Section 4.1) on a transaction-heavy trace.
func BenchmarkAblationGC(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := sema.GenConfig{Threads: 4, OpsPerThd: 1200, Vars: 8, Locks: 2, PAtomic: 0.9, PLock: 0.4}
	tr := sema.RandomTrace(rng, cfg)
	for _, mode := range []struct {
		name string
		noGC bool
	}{{"WithGC", false}, {"WithoutGC", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var alive int
			for i := 0; i < b.N; i++ {
				res := core.CheckTrace(tr, core.Options{NoGC: mode.noGC})
				alive = res.Stats.MaxAlive
			}
			b.ReportMetric(float64(alive), "maxAlive")
		})
	}
}

// BenchmarkBlameAssignment measures the cost of full blame assignment on
// a violation-dense trace (cycle extraction + increasing-cycle check).
func BenchmarkBlameAssignment(b *testing.B) {
	x := trace.Var(0)
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		tr = append(tr,
			trace.Beg(1, trace.Label(fmt.Sprintf("m%d", i))),
			trace.Rd(1, x),
			trace.Wr(2, x),
			trace.Wr(1, x),
			trace.Fin(1),
		)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.CheckTrace(tr, core.Options{})
		if len(res.Warnings) == 0 {
			b.Fatal("expected warnings")
		}
	}
}
