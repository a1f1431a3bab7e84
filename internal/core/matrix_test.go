package core_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
	"repro/internal/sema"
	"repro/internal/serial"
	"repro/internal/span"
	"repro/internal/trace"
)

// TestConformanceMatrix runs the matrix on the bench corpus — its
// Table 1 programs and hot loops recorded at scale 4 (2 under -short).
func TestConformanceMatrix(t *testing.T) {
	scale := 4
	if testing.Short() {
		scale = 2
	}
	conform(t, corpusRows(t, scale))
}

// TestDifferentialRandomTraces runs the matrix on random feasible traces
// from the sema generator.
func TestDifferentialRandomTraces(t *testing.T) {
	conform(t, randomRows(t, 20080607, 400, sema.DefaultGenConfig(), false))
}

// TestFilterDifferentialMatrix runs the matrix on a second seed's random
// traces.
func TestFilterDifferentialMatrix(t *testing.T) {
	conform(t, randomRows(t, 20080608, 300, sema.DefaultGenConfig(), false))
}

// TestDifferentialSwapOracle runs the matrix on small random traces, and
// holds the graph oracle to the brute-force search for an equivalent
// serial trace, which shares no theory with the happens-before
// formulation, on those of at most 20 operations.
func TestDifferentialSwapOracle(t *testing.T) {
	rows := randomRows(t, 42, 300, sema.GenConfig{Threads: 2, OpsPerThd: 4, Vars: 2, Locks: 1, PAtomic: 0.7, PLock: 0.3}, false)
	for _, r := range rows {
		if len(r.tr) <= 20 && serial.SwapCheck(r.tr) != r.want {
			t.Fatalf("%s: the swap oracle says %v, the graph oracle %v\n%s", r.name, !r.want, r.want, r.tr)
		}
	}
	conform(t, rows)
}

// TestFilterDifferentialLoopTraces runs the matrix, split columns
// included, on the crafted loops that exercise the filter's fast paths.
func TestFilterDifferentialLoopTraces(t *testing.T) {
	loops := core.LoopTraces()
	var rows []row
	for _, name := range slices.Sorted(maps.Keys(loops)) {
		rows = append(rows, newRow(t, "loop/"+name, loops[name], true))
	}
	conform(t, rows)
}

// TestStepBatchMatchesStep runs the matrix, split columns included, on
// random traces, the Table 1 programs at scale 2 (what the benchmark's
// check-dense workload checks, at a scale a test can afford) and the
// benchmark's synthetic loop mix.
func TestStepBatchMatchesStep(t *testing.T) {
	rows := randomRows(t, 22, 40, sema.DefaultGenConfig(), true)
	for i, tr := range denseCorpus(t) {
		rows = append(rows, newRow(t, "scale=2/"+bench.All()[i].Name, tr, true))
	}
	conform(t, append(rows, newRow(t, "synthetic-mix", bench.SyntheticMix(3000), true)))
}

// TestCheckStreamMatchesCheckTrace runs the matrix, split columns
// included, on the testdata traces and those the instrumenter's shim
// recorded.
func TestCheckStreamMatchesCheckTrace(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.txt")
	if len(files) == 0 {
		t.Fatalf("no testdata traces: %v", err)
	}
	var rows []row
	for _, file := range append(files, "../instr/testdata/single.trace.golden", "../instr/testdata/single.noprune.trace.golden") {
		data, err := os.ReadFile(file)
		tr, err2 := trace.ReadAuto(bytes.NewReader(data))
		if err != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", file, err, err2)
		}
		rows = append(rows, newRow(t, filepath.Base(file), tr, true))
	}
	conform(t, rows)
}

// conform is Theorem 1 as one table: every registered engine, in every
// configuration and every way a check can run, warns if and only if the
// trace is not conflict-serializable. Rows are inputs with the serial
// oracle's verdict; the tests above each run the table on one set of
// them. Columns are:
//
//   - configuration: core.Configs(), each engine at its default and with
//     the filter off, forensics on (where supported), NoMerge or NoGC;
//   - spans: no span buffer, or one;
//   - source and encoding: the row's slice through CheckTrace, or its
//     text or VTS1 encoding streamed through CheckStream;
//   - batch split: one batch, Step one operation at a time, {0,63,0,1}
//     cycled (0 is a Step), and two random splits of 1…700 operations.
//
// Every cell is held to the oracle's verdict, and on a violation to the
// operation of every other cell's first warning: a sound and complete
// online checker fires at the end of the minimal non-serializable prefix.
// Across spans, source, encoding and split, cells of one engine give the
// same warnings in every detail (reflect.DeepEqual: cycles, blame,
// reports) and Snapshot, and across splits sample the same operations;
// for the filter and forensics see related, for a traced cell sampled.
//
// Crossed: engine × source × encoding and each engine's default × spans
// on every row; every configuration but NoMerge and NoGC × spans × split
// on the rows marked split (a split on every row would be most of the
// suite's time). Elsewhere the filter and forensics, and everywhere
// NoMerge and NoGC, vary one at a time against the default, in one batch
// without spans; NoGC on rows of at most noGCLimit operations.
func conform(t *testing.T, rows []row) {
	t.Helper()
	splitRNG := rand.New(rand.NewSource(22))
	warnings, splitWarnings, split := 0, 0, false
	for _, r := range rows {
		split = split || r.split
		var splits [][]int
		if r.split {
			splits = [][]int{{0}, {0, 63, 0, 1}, randomSplit(splitRNG, len(r.tr)), randomSplit(splitRNG, len(r.tr))}
		}
		var text, bin bytes.Buffer
		if trace.Marshal(&text, r.tr) != nil || trace.MarshalBinary(&bin, r.tr) != nil {
			t.Fatalf("%s: cannot encode", r.name)
		}
		first := -1
		defaults := map[core.Engine]outcome{}
		for _, opts := range core.Configs() {
			if opts.NoGC && len(r.tr) > noGCLimit {
				continue
			}
			cell := fmt.Sprintf("%s, %s nofilter=%v forensics=%v nomerge=%v nogc=%v",
				r.name, core.InfoFor(opts.Engine).Name, opts.NoFilter, opts.Forensics, opts.NoMerge, opts.NoGC)
			base := check(r.tr, opts, false)
			if serializable := len(base.warnings) == 0; serializable != r.want {
				t.Fatalf("%s: serializable=%v, oracle %v\n%s", cell, serializable, r.want, r.tr)
			}
			if !r.want {
				if at := base.warnings[0].OpIndex; first < 0 {
					first = at
				} else if at != first {
					t.Fatalf("%s: first warning at op %d, another cell's at op %d", cell, at, first)
				}
			}
			warnings += len(base.warnings)
			def, ok := defaults[opts.Engine] // Configs lists an engine's default first
			if !ok {
				defaults[opts.Engine] = base
				for enc, data := range map[string][]byte{"text": text.Bytes(), "binary": bin.Bytes()} {
					where := cell + ", " + enc + " stream"
					same(t, where, stream(t, where, data, opts, len(r.tr)), base, false)
				}
			}
			related(t, cell, opts, base, def)
			if opts.NoMerge || opts.NoGC || ok && !r.split {
				continue
			}
			traced := check(r.tr, opts, true)
			same(t, cell+", spans", traced, base, false)
			sampled(t, cell, traced, len(r.tr))
			for _, sizes := range splits {
				for _, want := range []outcome{base, traced} {
					where := fmt.Sprintf("%s, spans=%v, batches %v…", cell, want.spans, sizes[:min(4, len(sizes))])
					same(t, where, feed(t, where, r.tr, opts, want.spans, sizes), want, true)
					splitWarnings += len(want.warnings)
				}
			}
		}
	}
	if warnings == 0 || split && splitWarnings == 0 {
		t.Fatalf("%d warnings in all, %d in the split cells: the matrix is not reaching what it is for", warnings, splitWarnings)
	}
}

// noGCLimit bounds the rows NoGC runs on. Without collection every
// transaction's node stays, and its ancestor set with it: the check is
// quadratic in the trace, and on the longest Table 1 programs it would
// be a third of the matrix's time.
const noGCLimit = 2048

// row is one input of the matrix.
type row struct {
	name        string
	tr          trace.Trace
	want, split bool // serializable by serial.Check; the split columns run on it
}

// newRow checks that tr is well formed and takes the oracle's verdict.
func newRow(t *testing.T, name string, tr trace.Trace, split bool) row {
	t.Helper()
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("%s: ill-formed: %v", name, err)
	}
	want, _ := serial.Check(tr)
	return row{name, tr, want, split}
}

// randomRows are n random feasible traces from the sema generator.
func randomRows(t *testing.T, seed int64, n int, cfg sema.GenConfig, split bool) []row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]row, n)
	for i := range rows {
		rows[i] = newRow(t, fmt.Sprintf("seed=%d/%d", seed, i), sema.RandomTrace(rng, cfg), split)
	}
	return rows
}

// corpusRows are the bench corpus at scale: bench.All()'s Table 1
// programs, then bench.Hot()'s loops.
func corpusRows(t *testing.T, scale int) []row {
	names := append(bench.All(), bench.Hot()...)
	var rows []row
	for i, tr := range corpus(t, scale) {
		rows = append(rows, newRow(t, fmt.Sprintf("scale=%d/%s", scale, names[i].Name), tr, false))
	}
	return rows
}

// randomSplit cuts n operations into batches of 1…700, which land
// before, on and after sampled operations.
func randomSplit(rng *rand.Rand, n int) []int {
	var sizes []int
	for total := 0; total < n; total += sizes[len(sizes)-1] {
		sizes = append(sizes, 1+rng.Intn(700))
	}
	return sizes
}

// outcome is what a check leaves behind that a caller can see.
// reflect.DeepEqual on its warnings follows every pointer a warning
// holds: the blamed transaction, the cycle edge for edge with each end's
// metadata, and the forensic report.
type outcome struct {
	warnings []*core.Warning
	snap     core.Snapshot
	spans    bool
	hits     [span.NumStages]int64 // operations booked per engine stage: which ones were sampled
	ns       int64                 // time booked to the filter and graph stages
}

func outcomeOf(warnings []*core.Warning, snap core.Snapshot, sb *span.Buf) outcome {
	o := outcome{warnings: warnings, snap: snap, spans: sb != nil}
	for s := span.StageFilter; s <= span.StageForensics; s++ {
		o.hits[s] = sb.StageHits(s)
	}
	o.ns = sb.StageNs(span.StageFilter) + sb.StageNs(span.StageGraph)
	return o
}

// attach gives opts a span buffer of its own when spans is set.
func attach(opts *core.Options, spans bool) *span.Buf {
	if spans {
		opts.Spans = span.New().Buffer("engine")
	}
	return opts.Spans
}

// check runs tr in one batch through CheckTrace.
func check(tr trace.Trace, opts core.Options, spans bool) outcome {
	sb := attach(&opts, spans)
	res := core.CheckTrace(tr, opts)
	return outcomeOf(res.Warnings, res.Snapshot, sb)
}

// stream runs an encoded trace of n operations through CheckStream.
func stream(t *testing.T, cell string, data []byte, opts core.Options, n int) outcome {
	res, got, err := core.CheckStream(trace.NewDecoder(bytes.NewReader(data)), opts)
	if err != nil || got != n {
		t.Fatalf("%s: %d of %d operations checked, err %v", cell, got, n, err)
	}
	return outcomeOf(res.Warnings, res.Snapshot, nil)
}

// feed runs tr through a fresh checker in batches of the given sizes
// (cycled; size 0 is one Step). The warning Step returns must be the one
// Warnings gained, and no batch may change a warning Warnings held before.
func feed(t *testing.T, cell string, tr trace.Trace, opts core.Options, spans bool, sizes []int) outcome {
	sb := attach(&opts, spans)
	c := core.New(opts)
	var held []*core.Warning
	for i := 0; len(tr) > 0; i++ {
		size := min(sizes[i%len(sizes)], len(tr))
		if size == 0 {
			w := c.Step(tr[0])
			if ws := c.Warnings(); len(ws) > len(held) && ws[len(held)] != w || len(ws) == len(held) && w != nil {
				t.Fatalf("%s: Step returned %v, Warnings gained %v", cell, w, ws[len(held):])
			}
			size = 1
		} else {
			c.StepBatch(tr[:size])
		}
		tr = tr[size:]
		if ws := c.Warnings(); len(ws) < len(held) || !slices.Equal(ws[:len(held)], held) {
			t.Fatalf("%s: a batch changed the warnings held before it", cell)
		}
		held = append(held, c.Warnings()[len(held):]...)
	}
	return outcomeOf(c.Warnings(), c.Snapshot(), sb)
}

// same holds got to want: the same warnings in every detail, the same
// Snapshot and, when hits is set, the same operations sampled per stage.
func same(t *testing.T, cell string, got, want outcome, hits bool) {
	t.Helper()
	if !reflect.DeepEqual(got.warnings, want.warnings) || got.snap != want.snap || hits && got.hits != want.hits {
		t.Fatalf("%s: differs\nwarnings %v\nwant     %v\nsnapshot %+v\nwant     %+v\nhits %v\nwant %v",
			cell, got.warnings, want.warnings, got.snap, want.snap, got.hits, want.hits)
	}
}

// sampled holds a traced check of n operations to the sampler's rule:
// each of the first stride operations is booked for itself, then one per
// stride for its stride, so the operations booked are n exactly up to a
// stride and to within a stride beyond; and over a few strides, where
// some timed operation outlasts the clock's own cost, it books some time.
func sampled(t *testing.T, cell string, o outcome, n int) {
	t.Helper()
	if got := int(o.hits[span.StageFilter] + o.hits[span.StageGraph]); n <= stride && got != n || got <= n-stride || got >= n+stride {
		t.Fatalf("%s: %d operations booked to the filter and graph stages for %d", cell, got, n)
	}
	if n > 4*stride && o.ns <= 0 {
		t.Fatalf("%s: spans on, but no stage time booked", cell)
	}
}

// related holds a configuration with the filter off or forensics on to
// its engine's default: the same warnings in what neither may move —
// position, increasing flag, blamed method, refuted labels — with nothing
// filtered when the filter is off; and with forensics on, the same
// Filtered and Stats, and a report on every warning and provenance on
// every cycle edge, where the default has none.
func related(t *testing.T, cell string, opts core.Options, got, def outcome) {
	t.Helper()
	if !opts.NoFilter && !opts.Forensics {
		return
	}
	key := func(ws []*core.Warning) (out []string) {
		for _, w := range ws {
			blamed := trace.Label("")
			if w.Blamed != nil {
				blamed = w.Blamed.Label
			}
			out = append(out, fmt.Sprintf("%d/%v/%s/%v", w.OpIndex, w.Increasing, blamed, w.Refuted))
		}
		return out
	}
	if g, w := key(got.warnings), key(def.warnings); !slices.Equal(g, w) {
		t.Fatalf("%s: warnings\n%v\nthe default's\n%v", cell, g, w)
	}
	if opts.NoFilter && got.snap.Filtered != 0 {
		t.Fatalf("%s: %d operations filtered with the filter off", cell, got.snap.Filtered)
	}
	if !opts.Forensics {
		return
	}
	if got.snap.Filtered != def.snap.Filtered || got.snap.Stats != def.snap.Stats {
		t.Fatalf("%s: filtered %d, stats %+v; without forensics %d, %+v", cell, got.snap.Filtered, got.snap.Stats, def.snap.Filtered, def.snap.Stats)
	}
	for i, w := range got.warnings {
		on, off := w.CycleEdges(), def.warnings[i].CycleEdges()
		if w.Forensics() == nil || def.warnings[i].Forensics() != nil || len(on) != len(off) {
			t.Fatalf("%s warning %d: a report needs forensics on, and on and off the same cycle", cell, i)
		}
		for e := range on {
			if on[e].Prov == nil || off[e].Prov != nil {
				t.Fatalf("%s warning %d edge %d: provenance needs forensics on, and with it on every edge has it", cell, i, e)
			}
		}
	}
}

var (
	corpusMu sync.Mutex
	corpora  = map[int][]trace.Trace{}
)

// corpus is the bench suite — bench.All()'s Table 1 programs, then
// bench.Hot()'s loops — recorded under the deterministic scheduler at
// seed 1 and the given scale, once per scale for the test binary. The
// traces are shared: read only.
func corpus(tb testing.TB, scale int) []trace.Trace {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpora[scale]; ok {
		return c
	}
	var c []trace.Trace
	for _, w := range append(bench.All(), bench.Hot()...) {
		rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(t *rr.Thread) {
			w.Body(t, bench.Params{Scale: scale})
		})
		if rep.Deadlocked || rep.Truncated {
			tb.Fatalf("recording %s: deadlocked=%v truncated=%v", w.Name, rep.Deadlocked, rep.Truncated)
		}
		c = append(c, rep.Trace)
	}
	corpora[scale] = c
	return c
}

// denseCorpus is the Table 1 programs at scale 2: what the benchmark's
// check-dense workload checks, at a scale a test can afford.
func denseCorpus(tb testing.TB) []trace.Trace { return corpus(tb, 2)[:len(bench.All())] }
