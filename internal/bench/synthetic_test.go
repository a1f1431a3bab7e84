package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/trace"
)

func TestSyntheticTraces(t *testing.T) {
	tr := bench.SyntheticMix(10000)
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("mix: invalid trace: %v", err)
	}
	if len(tr) < 10000 {
		t.Fatalf("mix: %d events, want >= 10000", len(tr))
	}
	res := core.CheckTrace(tr, core.Options{})
	if !res.Serializable {
		t.Fatalf("mix: synthetic trace must be violation-free, got %d warnings", len(res.Warnings))
	}
}
