package exper

import (
	"testing"

	"repro/internal/core"
	"repro/internal/span"
)

// TestSpanTracingIsInert is the inertness contract for the span tracer,
// checked the same way the filter checks soundness: on every corpus
// workload, every registered engine produces bit-identical results —
// verdict, warnings (operation, direction, blame, refutation), graph
// statistics and filter counts — with a tracer attached and without one.
// The span hooks may observe the pipeline; they must never perturb it.
func TestSpanTracingIsInert(t *testing.T) {
	scale := 4
	if testing.Short() {
		scale = 2
	}
	for name, tr := range corpusTraces(scale) {
		for _, info := range core.Engines() {
			plain := core.CheckTrace(tr, core.Options{Engine: info.Engine, Forensics: true})

			tracer := span.New()
			sb := tracer.Buffer("diff")
			root := sb.Start("check", 0)
			traced := core.CheckTrace(tr, core.Options{Engine: info.Engine, Forensics: true, Spans: sb})
			sb.End(root)
			sb.Flush()

			if plain.Serializable != traced.Serializable {
				t.Fatalf("%s engine %s: verdict flipped under tracing: plain=%v traced=%v",
					name, info.Name, plain.Serializable, traced.Serializable)
			}
			if plain.Filtered != traced.Filtered {
				t.Fatalf("%s engine %s: filtered %d plain vs %d traced",
					name, info.Name, plain.Filtered, traced.Filtered)
			}
			if plain.Stats != traced.Stats {
				t.Fatalf("%s engine %s: graph stats diverged:\nplain:  %+v\ntraced: %+v",
					name, info.Name, plain.Stats, traced.Stats)
			}
			if len(plain.Warnings) != len(traced.Warnings) {
				t.Fatalf("%s engine %s: %d warnings plain, %d traced",
					name, info.Name, len(plain.Warnings), len(traced.Warnings))
			}
			for i := range plain.Warnings {
				if got, want := warnKey(traced.Warnings[i]), warnKey(plain.Warnings[i]); got != want {
					t.Fatalf("%s engine %s warning %d: traced %s != plain %s",
						name, info.Name, i, got, want)
				}
			}

			// The tracer must also have seen the work it watched: the
			// timed operations land in the filter or graph accumulator.
			if sb.StageNs(span.StageFilter)+sb.StageNs(span.StageGraph) <= 0 {
				t.Errorf("%s engine %s: tracer attached but no stage time recorded", name, info.Name)
			}
		}
	}
}
