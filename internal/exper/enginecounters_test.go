package exper

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// countersGolden pins what every engine counts over the corpus and the
// repository's testdata traces, per input, engine and merge setting: the
// verdict, the filter count, every graph.Stats field, the warning,
// increasing, blamed and refuted counts, the AeroDrome subscriber peak,
// and the warnKey list (its length and a digest). An engine's state may
// be laid out any way; a counter may not move without this file saying
// so. Regenerate, at both scales, with
//
//	go test ./internal/exper -run EngineCountersGolden -update-engine-golden
//	go test ./internal/exper -run EngineCountersGolden -update-engine-golden -short
const countersGolden = "testdata/engine_counters.golden"

var updateCountersGolden = flag.Bool("update-engine-golden", false, "rewrite "+countersGolden+" for the scale being run")

// engineCounters is one golden line without its key.
func engineCounters(res *core.Result) string {
	h := sha256.New()
	for _, w := range res.Warnings {
		fmt.Fprintln(h, warnKey(w))
	}
	s := res.Snapshot
	return fmt.Sprintf("serializable=%v filtered=%d stats=%+v warnings=%d increasing=%d blamed=%d refuted=%d subs=%d keys=%d %x",
		res.Serializable, s.Filtered, s.Stats, s.Warnings, s.Increasing, s.Blamed, s.Refuted, s.AeroSubsPeak,
		len(res.Warnings), h.Sum(nil)[:12])
}

// TestEngineCountersGolden runs {optimized, basic, aerodrome} × {merge,
// NoMerge} over every input and compares the counters with countersGolden.
func TestEngineCountersGolden(t *testing.T) {
	scale := 4
	if testing.Short() {
		scale = 2
	}
	count := func(name string, tr trace.Trace, got map[string]string) {
		for _, info := range core.Engines() {
			for _, noMerge := range []bool{false, true} {
				cfg := "default"
				if noMerge {
					cfg = "nomerge"
				}
				res := core.CheckTrace(tr, core.Options{Engine: info.Engine, NoMerge: noMerge})
				got[name+"/"+info.Name+"/"+cfg] = engineCounters(res)
			}
		}
	}

	prefix, got := fmt.Sprintf("scale=%d/", scale), map[string]string{}
	for name, tr := range corpusTraces(scale) {
		count(prefix+name, tr, got)
	}
	checkGolden(t, countersGolden, *updateCountersGolden, prefix, got)

	files, err := filepath.Glob("../../testdata/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata traces: %v", err)
	}
	got = map[string]string{}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.NewDecoder(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		count("testdata/"+filepath.Base(file), tr, got)
	}
	checkGolden(t, countersGolden, *updateCountersGolden, "testdata/", got)
}
