package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sema"
	"repro/internal/span"
	"repro/internal/trace"
)

// batchOutcome is what a check leaves behind that a caller can see.
// reflect.DeepEqual on it follows every pointer a warning holds: the
// blamed transaction, the cycle edge for edge with each end's metadata,
// and the forensic report.
type batchOutcome struct {
	warnings []*core.Warning
	snap     core.Snapshot
	hits     [span.NumStages]int64 // operations booked per stage: which ones were timed
}

// feedSplit runs tr through a fresh checker in batches of the given sizes
// (cycled; size 0 means Step, one operation at a time). What Step returns
// and StepBatch hands to warn must be what Warnings then holds.
func feedSplit(t *testing.T, tr trace.Trace, opts core.Options, traced bool, sizes []int) batchOutcome {
	var sb *span.Buf
	if traced {
		sb = span.New().Buffer("engine")
		opts.Spans = sb
	}
	c := core.New(opts)
	var delivered []*core.Warning
	warn := func(w *core.Warning) { delivered = append(delivered, w) }
	for i := 0; len(tr) > 0; i++ {
		size := min(sizes[i%len(sizes)], len(tr))
		if size == 0 {
			if w := c.Step(tr[0]); w != nil {
				warn(w)
			}
			size = 1
		} else {
			c.StepBatch(tr[:size], warn)
		}
		tr = tr[size:]
		if !slices.Equal(delivered, c.Warnings()) {
			t.Fatalf("%+v, batches %v: %d warnings delivered, Warnings holds %d", opts, sizes, len(delivered), len(c.Warnings()))
		}
	}
	out := batchOutcome{warnings: delivered, snap: c.Snapshot()}
	for s := span.Stage(0); s < span.NumStages; s++ {
		out.hits[s] = sb.StageHits(s)
	}
	return out
}

// TestStepBatchMatchesStep: batches are invisible. For every registered
// engine, with and without the filter, forensics and the sampled stage
// clock, a trace fed through Step one operation at a time, as one batch,
// and in random splits — sizes 1…700, so that splits land before, on and
// after sampled operations and across the exact prefix — yields the same
// warnings in every detail, the same Snapshot, and the same operations
// timed (hit counts per stage).
func TestStepBatchMatchesStep(t *testing.T) {
	traces := map[string]trace.Trace{"loop": bench.SyntheticMix(3000)}
	files, err := filepath.Glob("../../testdata/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadAuto(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		traces[filepath.Base(file)] = tr
	}
	for i, tr := range denseCorpus(t) {
		traces[bench.All()[i].Name] = tr
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 40; i++ {
		traces[fmt.Sprintf("random#%d", i)] = sema.RandomTrace(rng, sema.DefaultGenConfig())
	}
	warned := false
	for name, tr := range traces {
		splits := make([][]int, 2)
		for i := range splits {
			for n := 0; n < len(tr); {
				size := 1 + rng.Intn(700)
				splits[i] = append(splits[i], size)
				n += size
			}
		}
		for _, info := range core.Engines() {
			for cfg := 0; cfg < 8; cfg++ {
				opts := core.Options{Engine: info.Engine, NoFilter: cfg&1 != 0, Forensics: cfg&2 != 0}
				traced := cfg&4 != 0
				want := feedSplit(t, tr, opts, traced, []int{0})
				warned = warned || len(want.warnings) > 0
				feeds := append([][]int{{len(tr)}, {0, 63, 0, 1}}, splits...)
				for _, sizes := range feeds {
					got := feedSplit(t, tr, opts, traced, sizes)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s, %s, %+v, traced=%v, batches %v…: differs from Step\nwarnings %v\nwant     %v\nsnapshot %+v\nwant     %+v\nhits %v\nwant %v",
							name, info.Name, opts, traced, sizes[:min(4, len(sizes))], got.warnings, want.warnings, got.snap, want.snap, got.hits, want.hits)
					}
				}
			}
		}
	}
	if !warned {
		t.Error("no trace produced a warning: the comparison is vacuous")
	}
}
