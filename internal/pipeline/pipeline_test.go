package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
	"repro/internal/sema"
	"repro/internal/trace"
)

// workerCounts are the fan-outs every differential assertion runs at.
var workerCounts = []int{1, 2, 8}

// diffConfigs are the engine configurations the pipeline must reproduce
// bit-identically for every registered engine.
var diffConfigs = []core.Options{
	{},
	{FirstOnly: true},
	{NoMerge: true},
	{NoGC: true},
	{MaxWarnings: 2},
}

// assertIdentical fails unless the pipeline result matches the serial
// one on every observable: verdict, warning positions, blame, refuted
// blocks, rendered warnings, filter count and graph statistics.
func assertIdentical(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if got.Serializable != want.Serializable {
		t.Fatalf("%s: serializable=%v, serial=%v", label, got.Serializable, want.Serializable)
	}
	if got.Filtered != want.Filtered {
		t.Fatalf("%s: filtered=%d, serial=%d", label, got.Filtered, want.Filtered)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats=%+v, serial=%+v", label, got.Stats, want.Stats)
	}
	if len(got.Warnings) != len(want.Warnings) {
		t.Fatalf("%s: %d warnings, serial %d", label, len(got.Warnings), len(want.Warnings))
	}
	for i, w := range want.Warnings {
		g := got.Warnings[i]
		if g.OpIndex != w.OpIndex {
			t.Fatalf("%s: warning %d at op %d, serial at op %d", label, i, g.OpIndex, w.OpIndex)
		}
		if g.Method() != w.Method() {
			t.Fatalf("%s: warning %d blames %q, serial %q", label, i, g.Method(), w.Method())
		}
		if g.String() != w.String() {
			t.Fatalf("%s: warning %d renders\n%s\nserial\n%s", label, i, g, w)
		}
	}
}

func checkAllEngines(t *testing.T, name string, tr trace.Trace) {
	t.Helper()
	for _, info := range core.Engines() {
		for _, base := range diffConfigs {
			opts := base
			opts.Engine = info.Engine
			want := core.CheckTrace(tr, opts)
			for _, n := range workerCounts {
				label := fmt.Sprintf("%s/%s/%+v/workers=%d", name, info.Name, base, n)
				got := CheckTrace(tr, opts, Config{Workers: n, Batch: 64})
				assertIdentical(t, label, want, got)
			}
		}
	}
}

// TestCorpusDifferential replays the full workload corpus through every
// registered engine at every worker count and requires bit-identical
// results against the serial path — the acceptance matrix of the
// parallel pipeline.
func TestCorpusDifferential(t *testing.T) {
	for _, w := range bench.All() {
		rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(th *rr.Thread) {
			w.Body(th, bench.Params{Scale: 1})
		})
		checkAllEngines(t, w.Name, rep.Trace)
	}
}

// TestHotLoopDifferential covers the redundancy-heavy loop regime the
// mark stage targets: these traces are where most operations are marked,
// so divergence would show here first.
func TestHotLoopDifferential(t *testing.T) {
	for _, w := range bench.Hot() {
		rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(th *rr.Thread) {
			w.Body(th, bench.Params{Scale: 3})
		})
		checkAllEngines(t, w.Name, rep.Trace)
	}
}

// TestRandomDifferential stresses the marking contract with random
// feasible traces, including non-serializable ones where warnings land
// mid-run.
func TestRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20080608))
	for i := 0; i < 120; i++ {
		tr := sema.RandomTrace(rng, sema.DefaultGenConfig())
		checkAllEngines(t, fmt.Sprintf("random-%d", i), tr)
	}
}

// TestAdjacentRepeats hand-builds the regimes the shard stage marks:
// long same-kind runs, runs broken by sync events, fork/join barriers,
// chained marks crossing batch boundaries (Batch: 4 forces that), and a
// warning at a run's anchor.
func TestAdjacentRepeats(t *testing.T) {
	mk := func(name string, tr trace.Trace) {
		for _, n := range workerCounts {
			for _, info := range core.Engines() {
				opts := core.Options{Engine: info.Engine}
				want := core.CheckTrace(tr, opts)
				got := CheckTrace(tr, opts, Config{Workers: n, Batch: 4})
				assertIdentical(t, fmt.Sprintf("%s/%s/workers=%d", name, info.Name, n), want, got)
			}
		}
	}

	var long trace.Trace
	long = append(long, trace.Beg(1, "m"))
	for i := 0; i < 100; i++ {
		long = append(long, trace.Rd(1, 7))
	}
	long = append(long, trace.Fin(1))
	mk("long-read-run", long)

	var broken trace.Trace
	broken = append(broken, trace.Beg(1, "m"))
	for i := 0; i < 10; i++ {
		broken = append(broken, trace.Rd(1, 7), trace.Rd(1, 7), trace.Acq(1, 3),
			trace.Rd(1, 7), trace.Rel(1, 3))
	}
	broken = append(broken, trace.Fin(1))
	mk("sync-broken-run", broken)

	// Two threads sharing the variable: cross-thread accesses reset the
	// run, and the second thread's transaction conflicts.
	var cross trace.Trace
	cross = append(cross, trace.ForkOp(1, 2), trace.Beg(1, "a"), trace.Beg(2, "b"))
	for i := 0; i < 8; i++ {
		cross = append(cross, trace.Rd(1, 7), trace.Rd(1, 7), trace.Wr(2, 7), trace.Wr(2, 7))
	}
	cross = append(cross, trace.Fin(1), trace.Fin(2), trace.JoinOp(1, 2))
	mk("cross-thread", cross)

	// A non-serializable interleaving where the cycle closes on an access
	// that anchors a marked run right after it: wr(2,x) … rd(1,x) rd(1,x)
	// with the classic write-between-read-and-write shape.
	viol := trace.Trace{
		trace.ForkOp(1, 2),
		trace.Beg(1, "m"),
		trace.Rd(1, 7),
		trace.Wr(2, 7),
		trace.Wr(2, 7),
		trace.Wr(1, 7),
		trace.Wr(1, 7),
		trace.Wr(1, 7),
		trace.Rd(1, 7),
		trace.Rd(1, 7),
		trace.Fin(1),
		trace.JoinOp(1, 2),
	}
	mk("warning-anchor", viol)
}

// TestStreamParity checks the streaming entry point against
// core.CheckStream: same results, same op counts, same error surface —
// including the empty stream and a stream that dies mid-trace.
func TestStreamParity(t *testing.T) {
	rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(th *rr.Thread) {
		bench.ByName("spinread").Body(th, bench.Params{Scale: 2})
	})
	var buf bytes.Buffer
	if err := trace.MarshalBinary(&buf, rep.Trace); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"full", full},
		{"empty", nil},
		{"truncated", full[:len(full)/2]},
	}
	for _, tc := range cases {
		want, wantN, wantErr := core.CheckStream(trace.NewDecoder(bytes.NewReader(tc.data)), core.Options{})
		for _, n := range workerCounts {
			got, gotN, gotErr := CheckStream(trace.NewDecoder(bytes.NewReader(tc.data)),
				core.Options{}, Config{Workers: n, Batch: 128})
			if gotN != wantN {
				t.Fatalf("%s/workers=%d: consumed %d ops, serial %d", tc.name, n, gotN, wantN)
			}
			if (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s/workers=%d: err=%v, serial err=%v", tc.name, n, gotErr, wantErr)
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("%s/workers=%d: result=%v, serial=%v", tc.name, n, got, want)
			}
			if got != nil {
				assertIdentical(t, fmt.Sprintf("%s/workers=%d", tc.name, n), want, got)
			}
		}
	}
}

// TestIgnoreSpec checks the shard stage replicates the atomicity
// specification: exempted blocks never count as checked depth.
func TestIgnoreSpec(t *testing.T) {
	var tr trace.Trace
	tr = append(tr, trace.Beg(1, "skipme"))
	for i := 0; i < 20; i++ {
		tr = append(tr, trace.Rd(1, 7))
	}
	tr = append(tr, trace.Beg(1, "checked"))
	for i := 0; i < 20; i++ {
		tr = append(tr, trace.Rd(1, 7))
	}
	tr = append(tr, trace.Fin(1), trace.Fin(1))
	ign := map[trace.Label]bool{"skipme": true}
	for _, info := range core.Engines() {
		opts := core.Options{Engine: info.Engine, Ignore: ign}
		want := core.CheckTrace(tr, opts)
		for _, n := range workerCounts {
			got := CheckTrace(tr, opts, Config{Workers: n, Batch: 8})
			assertIdentical(t, fmt.Sprintf("ignore/%s/workers=%d", info.Name, n), want, got)
		}
	}
}

// TestSerialFallbacks: configurations the mark stage must refuse
// (filtering off, forensics on, one worker) reach the driver unmarked
// and stay identical trivially — but the observer must still fire.
func TestSerialFallbacks(t *testing.T) {
	rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(th *rr.Thread) {
		bench.ByName("spinread").Body(th, bench.Params{Scale: 1})
	})
	tr := rep.Trace
	for _, tc := range []struct {
		opts    core.Options
		workers int
	}{
		{core.Options{NoFilter: true}, 4},
		{core.Options{Forensics: true}, 4},
		{core.Options{}, 1},
	} {
		want := core.CheckTrace(tr, tc.opts)
		var hooked, skipped int
		var chk core.Checker
		got := CheckTrace(tr, tc.opts, Config{Workers: tc.workers, Observer: &core.Observer{
			Checker: func(c core.Checker) { chk = c },
			Batch:   func(ops, skip int) { hooked += ops; skipped += skip },
		}})
		assertIdentical(t, fmt.Sprintf("%+v/workers=%d", tc.opts, tc.workers), want, got)
		if hooked != len(tr) {
			t.Fatalf("observer saw %d ops, want %d", hooked, len(tr))
		}
		if skipped != 0 || got.Skipped != 0 {
			t.Fatalf("unmarked run skipped %d ops (result says %d)", skipped, got.Skipped)
		}
		if chk == nil {
			t.Fatal("Observer.Checker never fired")
		}
	}
}

// TestOnOpWarnings: the observer must see every op exactly once and
// each warning exactly once, in trace order, among the checker's
// Warnings at the end of the batch that raised it, at every worker count.
func TestOnOpWarnings(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(1, 2),
		trace.Beg(1, "m"),
		trace.Rd(1, 7),
		trace.Wr(2, 7),
		trace.Wr(1, 7),
		trace.Fin(1),
		trace.JoinOp(1, 2),
	}
	want := core.CheckTrace(tr, core.Options{})
	if want.Serializable {
		t.Fatal("fixture should violate")
	}
	for _, n := range workerCounts {
		var seen []int
		var chk core.Checker
		idx := 0
		CheckTrace(tr, core.Options{}, Config{Workers: n, Batch: 2, Observer: &core.Observer{
			Checker: func(c core.Checker) { chk = c },
			Batch: func(ops, _ int) {
				for _, w := range chk.Warnings()[len(seen):] {
					if w.OpIndex < idx || w.OpIndex >= idx+ops {
						t.Errorf("workers=%d: warning at op %d seen after the batch of ops %d to %d", n, w.OpIndex, idx, idx+ops-1)
					}
					seen = append(seen, w.OpIndex)
				}
				idx += ops
			},
		}})
		if idx != len(tr) {
			t.Fatalf("workers=%d: observer saw %d ops, want %d", n, idx, len(tr))
		}
		var wantIdx []int
		for _, w := range want.Warnings {
			wantIdx = append(wantIdx, w.OpIndex)
		}
		if fmt.Sprint(seen) != fmt.Sprint(wantIdx) {
			t.Fatalf("workers=%d: warnings at %v via the observer, serial at %v", n, seen, wantIdx)
		}
	}
}

// TestMarksActuallySkip guards against the silent degradation where the
// shard stage marks nothing and the "parallel" path quietly runs every
// op through the full engine: on a hot loop with 8 workers the skip
// counter must account for most filtered events.
func TestMarksActuallySkip(t *testing.T) {
	// Block-wise runs over four variables: each block of 100 reads of
	// one variable is a markable run, spread across all shards.
	var tr trace.Trace
	tr = append(tr, trace.Beg(1, "m"))
	for i := 0; i < 10000; i++ {
		tr = append(tr, trace.Rd(1, trace.Var(int32(i/100%4))))
	}
	tr = append(tr, trace.Fin(1))
	var st Stats
	res := CheckTrace(tr, core.Options{}, Config{Workers: 8, Stats: &st})
	if res.Filtered < 9000 {
		t.Fatalf("filtered=%d, want the loop regime mostly filtered", res.Filtered)
	}
	// The filtering must flow through honored marks — the engine stage
	// skipping on the workers' verdict, not rediscovering redundancy
	// with its own filter.
	if st.Ops != int64(len(tr)) {
		t.Fatalf("stats ops=%d, want %d", st.Ops, len(tr))
	}
	if st.Skipped < 9000 {
		t.Fatalf("skipped=%d of %d filtered: marks are not being honored", st.Skipped, res.Filtered)
	}
	// And the serial count must agree exactly, as everywhere.
	if want := core.CheckTrace(tr, core.Options{}); want.Filtered != res.Filtered {
		t.Fatalf("filtered=%d, serial=%d", res.Filtered, want.Filtered)
	}
}

// TestWarningRendering sanity-checks that blame strings survive the
// pipeline path verbatim (they are compared corpus-wide above; this is
// the focused fixture with a named method).
func TestWarningRendering(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(1, 2),
		trace.Beg(1, "transfer"),
		trace.Rd(1, 7),
		trace.Wr(2, 7),
		trace.Wr(1, 7),
		trace.Fin(1),
		trace.JoinOp(1, 2),
	}
	want := core.CheckTrace(tr, core.Options{})
	got := CheckTrace(tr, core.Options{}, Config{Workers: 8, Batch: 2})
	if len(want.Warnings) == 0 || len(got.Warnings) != len(want.Warnings) {
		t.Fatalf("warnings: got %d, want %d (nonzero)", len(got.Warnings), len(want.Warnings))
	}
	if !strings.Contains(got.Warnings[0].String(), "transfer") {
		t.Fatalf("blame lost: %s", got.Warnings[0])
	}
}

// TestCloseReleasesStages: a consumer that stops early — it panicked, or
// simply lost interest — strands no producer or shard worker, whether
// they are parked on the ring or mid-stream; Close is all it takes.
func TestCloseReleasesStages(t *testing.T) {
	var tr trace.Trace
	tr = append(tr, trace.Beg(1, "m"))
	for i := 0; i < 100_000; i++ {
		tr = append(tr, trace.Rd(1, trace.Var(int32(i/100%4))))
	}
	var buf bytes.Buffer
	if err := trace.MarshalBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, workers := range []int{0, 4} {
		for i := 0; i < 5; i++ {
			func() {
				src := newSource(trace.NewDecoder(bytes.NewReader(buf.Bytes())), nil, core.Options{},
					Config{Workers: workers, Batch: 64})
				defer src.Close()
				defer func() { recover() }()
				core.Check(src.Next, core.Options{}, &core.Observer{
					Batch: func(int, int) { panic("consumer gone") },
				})
			}()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d → %d: stages outlived Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
