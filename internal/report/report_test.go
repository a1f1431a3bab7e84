package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/exper"
)

func TestTable1Rendering(t *testing.T) {
	rows := []exper.Table1Row{{
		Name: "elevator", JavaLines: 520, BaseTime: 5 * time.Millisecond,
		Steps: 12500, Events: 9876,
		Empty: 1.1, Eraser: 1.2, Atomizer: 1.3, Velodrome: 1.4,
		NoMergeAllocated: 420, NoMergeMaxAlive: 20,
		MergeAllocated: 380, MergeMaxAlive: 13,
		PaperNoMergeAlloc: "174,000", PaperNoMergeAlive: "20",
		PaperMergeAlloc: "170,000", PaperMergeAlive: "13",
	}}
	var b strings.Builder
	Table1(&b, rows)
	out := b.String()
	for _, want := range []string{"Table 1", "elevator", "520", "12500", "9876", " 400 ", "1.4", "420 (174,000)", "13 (13)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	rows := []exper.Table2Row{
		{
			Name: "colt", AtomizerNonSerial: 27, AtomizerFalse: 2,
			VeloNonSerial: 20, Missed: 7,
			VeloWarnings: 10, VeloBlamed: 9,
			PaperAtomNS: 27, PaperAtomFA: 2, PaperVeloNS: 20, PaperMissed: 7,
		},
		{Name: "raja"},
	}
	var b strings.Builder
	Table2(&b, rows)
	out := b.String()
	for _, want := range []string{"Table 2", "colt", "27 / 27", "7 / 7", "90%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "-") {
		t.Error("warning-free rows should show '-' blame")
	}
}

func TestInjectRendering(t *testing.T) {
	res := []exper.InjectResult{
		{Workload: "elevator", Trials: 20, PlainHits: 11, AdvHits: 17, PlainRate: 0.55, AdvRate: 0.85},
		{Workload: "colt", Trials: 50, PlainHits: 10, AdvHits: 35, PlainRate: 0.2, AdvRate: 0.7},
	}
	var b strings.Builder
	Inject(&b, res)
	out := b.String()
	for _, want := range []string{"elevator", "55%", "85%", "Overall", "30%", "74%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestMethodDetail(t *testing.T) {
	rows := []exper.Table2Row{{
		Name:        "demo",
		VeloMethods: map[string]bool{"A.b": true, "C.d": true},
		AtomMethods: map[string]bool{"A.b": true, "E.f": true},
	}}
	var b strings.Builder
	MethodDetail(&b, rows)
	out := b.String()
	for _, want := range []string{"both: A.b", "velodrome only: C.d", "atomizer only: E.f"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestAblateRendering(t *testing.T) {
	rows := []exper.AblateRow{{
		Name: "multiset", AllocWithMerge: 607, AllocWithoutMerge: 7812,
		AliveWithGC: 6, AliveWithoutGC: 1100, VerdictsAgree: true,
	}, {
		Name: "broken", VerdictsAgree: false,
	}}
	var b strings.Builder
	Ablate(&b, rows)
	out := b.String()
	for _, want := range []string{"multiset", "607", "7812", "agree", "DIFFER"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestPoliciesRendering(t *testing.T) {
	res := []exper.PolicyResult{
		{Policy: "none", Trials: 35, Hits: 11, Rate: 0.31},
		{Policy: "reads+writes", Trials: 35, Hits: 25, Rate: 0.71},
	}
	var b strings.Builder
	Policies(&b, res)
	out := b.String()
	for _, want := range []string{"none", "31%", "reads+writes", "71%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestTable1RenderingSkipsEmptyPaper(t *testing.T) {
	rows := []exper.Table1Row{{Name: "x", BaseTime: time.Millisecond}}
	var b strings.Builder
	Table1(&b, rows) // must not panic on zero-value rows
	if !strings.Contains(b.String(), "x") {
		t.Error("row lost")
	}
}
