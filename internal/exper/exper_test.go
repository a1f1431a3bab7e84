package exper

import (
	"testing"

	"repro/internal/bench"
)

// TestTable2Shape checks the headline properties of Table 2 against the
// paper: Velodrome reports zero false alarms on every benchmark, the
// Atomizer reports false alarms exactly on the benchmarks the paper
// lists, Velodrome finds the large majority of the Atomizer's non-atomic
// methods, and the rare-schedule methods are missed on the four
// benchmarks with a non-zero Missed column.
func TestTable2Shape(t *testing.T) {
	rows := Table2(DefaultSeeds, 1, false)
	byName := map[string]Table2Row{}
	var total Table2Row
	for _, r := range rows {
		if r.Name == "Total" {
			total = r
			continue
		}
		byName[r.Name] = r
	}
	for name, r := range byName {
		if r.VeloFalse != 0 {
			t.Errorf("%s: Velodrome false alarms = %d, must be 0", name, r.VeloFalse)
		}
		if r.VeloNonSerial > r.AtomizerNonSerial+r.VeloNonSerial {
			t.Errorf("%s: impossible counts", name)
		}
	}
	// Benchmarks with Atomizer false alarms in the paper must have them
	// here; benchmarks without must be clean.
	for _, name := range []string{"elevator", "hedc", "jbb", "mtrt", "raytracer", "colt", "webl", "jigsaw"} {
		if byName[name].AtomizerFalse == 0 {
			t.Errorf("%s: expected Atomizer false alarms, got none", name)
		}
	}
	for _, name := range []string{"tsp", "sor", "moldyn", "montecarlo", "philo", "raja", "multiset"} {
		if fa := byName[name].AtomizerFalse; fa != 0 {
			t.Errorf("%s: Atomizer false alarms = %d, paper has 0", name, fa)
		}
	}
	// Missed methods concentrate on the paper's four benchmarks.
	for _, name := range []string{"raytracer", "colt", "webl", "jigsaw"} {
		if byName[name].Missed == 0 {
			t.Errorf("%s: expected missed methods, got none", name)
		}
	}
	if byName["raja"].AtomizerNonSerial != 0 || byName["raja"].VeloNonSerial != 0 {
		t.Error("raja must be warning-free for both tools")
	}
	// Aggregate shape: recall ≥ 80% (paper: 85%), blame rate ≥ 80%.
	foundRatio := float64(total.VeloNonSerial) / float64(total.VeloNonSerial+total.Missed)
	if foundRatio < 0.8 {
		t.Errorf("Velodrome recall = %.2f, want ≥ 0.80", foundRatio)
	}
	blameRate := float64(total.VeloBlamed) / float64(total.VeloWarnings)
	if blameRate < 0.8 {
		t.Errorf("blame assignment rate = %.2f, want ≥ 0.80 (Section 6)", blameRate)
	}
	if total.VeloFalse != 0 {
		t.Errorf("total Velodrome false alarms = %d", total.VeloFalse)
	}
	if total.PaperVeloNS != 133 || total.PaperAtomNS != 154 || total.PaperMissed != 21 {
		t.Error("paper reference totals wrong")
	}
}

// TestAdversarialIncreasesCoverage: with adversarial scheduling the total
// number of missed methods does not exceed the plain runs', and at least
// one previously-missed method is recovered (the paper's raytracer
// observation).
func TestAdversarialIncreasesCoverage(t *testing.T) {
	plain := Table2(DefaultSeeds, 1, false)
	adv := Table2(DefaultSeeds, 1, true)
	var plainMissed, advMissed int
	var advFalse int
	for i := range plain {
		if plain[i].Name == "Total" {
			plainMissed = plain[i].Missed
			advMissed = adv[i].Missed
		}
		advFalse += adv[i].VeloFalse
	}
	if advFalse != 0 {
		t.Errorf("adversarial scheduling created %d Velodrome false alarms; completeness lost", advFalse)
	}
	if advMissed >= plainMissed {
		t.Errorf("adversarial missed %d ≥ plain missed %d; no coverage gain", advMissed, plainMissed)
	}
}

// TestInjectionRates reproduces the Section 6 numbers in shape: plain
// single-run detection well below the adversarial rate.
func TestInjectionRates(t *testing.T) {
	res := Inject([]string{"elevator", "colt"}, DefaultSeeds, 1)
	if len(res) != 2 {
		t.Fatalf("expected 2 workloads, got %d", len(res))
	}
	trials, plainHits, advHits := 0, 0, 0
	for _, r := range res {
		trials += r.Trials
		plainHits += r.PlainHits
		advHits += r.AdvHits
		if r.Trials == 0 {
			t.Errorf("%s: no injection trials", r.Workload)
		}
	}
	plainRate := float64(plainHits) / float64(trials)
	advRate := float64(advHits) / float64(trials)
	if plainRate < 0.05 || plainRate > 0.65 {
		t.Errorf("plain detection rate %.2f outside plausible band (paper ≈ 0.30)", plainRate)
	}
	if advRate <= plainRate {
		t.Errorf("adversarial rate %.2f not above plain rate %.2f (paper: 0.30 → 0.70)",
			advRate, plainRate)
	}
}

// TestTable1Statistics checks the graph-statistics claims of Table 1 on a
// few benchmarks: garbage collection keeps very few nodes alive, and
// merging reduces allocation (dramatically on multiset, whose paper row
// goes from 218,000 to 8).
func TestTable1Statistics(t *testing.T) {
	for _, name := range []string{"elevator", "tsp", "multiset", "webl"} {
		w := bench.ByName(name)
		p := bench.Params{Scale: 1}
		nmAlloc, nmAlive := nodeStats(w, 1, p, true)
		mAlloc, mAlive := nodeStats(w, 1, p, false)
		if mAlloc > nmAlloc {
			t.Errorf("%s: merging increased allocation (%d > %d)", name, mAlloc, nmAlloc)
		}
		if nmAlive > 200 || mAlive > 200 {
			t.Errorf("%s: max alive %d/%d; GC should keep a few dozen (Table 1)",
				name, nmAlive, mAlive)
		}
	}
	// multiset is the merge showcase: nearly everything merges away.
	w := bench.ByName("multiset")
	nmAlloc, _ := nodeStats(w, 1, bench.Params{Scale: 1}, true)
	mAlloc, _ := nodeStats(w, 1, bench.Params{Scale: 1}, false)
	if mAlloc*2 > nmAlloc {
		t.Errorf("multiset: merge allocation %d not ≪ no-merge %d", mAlloc, nmAlloc)
	}
}

// TestTable1Runs exercises the timing harness end to end at tiny scale.
func TestTable1Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("timing loop")
	}
	rows := Table1(1, 1)
	if len(rows) != 15 {
		t.Fatalf("%d rows, want 15", len(rows))
	}
	for _, r := range rows {
		if r.BaseTime <= 0 {
			t.Errorf("%s: no base time", r.Name)
		}
		if r.Events == 0 {
			t.Errorf("%s: no events", r.Name)
		}
		if r.Velodrome <= 0 || r.Eraser <= 0 || r.Atomizer <= 0 || r.Empty <= 0 {
			t.Errorf("%s: missing slowdowns %+v", r.Name, r)
		}
		if r.PaperMergeAlloc == "" {
			t.Errorf("%s: missing paper reference", r.Name)
		}
	}
}

// TestRunBothAndClassify covers the harness helpers.
func TestRunBothAndClassify(t *testing.T) {
	w := bench.ByName("elevator")
	res := RunBoth(w, 1, bench.Params{}, false)
	if res.Report.Deadlocked || res.Report.Truncated {
		t.Fatal("bad run")
	}
	real, fa, set := Classify(w, res.VeloMethods)
	if fa != 0 {
		t.Errorf("Velodrome classified %d false alarms", fa)
	}
	if real != len(set) {
		t.Errorf("real=%d set=%d", real, len(set))
	}
	// Unknown methods count as false alarms so they cannot hide.
	if _, fa2, _ := Classify(w, map[string]bool{"no.such.method": true}); fa2 != 1 {
		t.Error("unlabeled methods must classify as false alarms")
	}
}

// TestPolicyStudyShape reproduces the Section 5 policy exploration: the
// default policy beats no advisor, and pausing only reads must not beat
// pausing only writes (the completing write is what holds the racy
// window open).
func TestPolicyStudyShape(t *testing.T) {
	res := PolicyStudy([]string{"elevator", "colt"}, DefaultSeeds, 1)
	rates := map[string]float64{}
	for _, r := range res {
		if r.Trials == 0 {
			t.Fatalf("policy %s: no trials", r.Policy)
		}
		rates[r.Policy] = r.Rate
	}
	if rates["reads+writes"] <= rates["none"] {
		t.Errorf("default policy %.2f not above baseline %.2f",
			rates["reads+writes"], rates["none"])
	}
	if rates["reads-only"] > rates["writes-only"] {
		t.Errorf("reads-only %.2f beat writes-only %.2f; the window mechanism is broken",
			rates["reads-only"], rates["writes-only"])
	}
}

// TestAblateExactness: the ablation harness confirms the optimizations
// never change a verdict and always help.
func TestAblateExactness(t *testing.T) {
	rows := Ablate(1, 1)
	if len(rows) != 15 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.VerdictsAgree {
			t.Errorf("%s: configurations disagree on the verdict", r.Name)
		}
		if r.AllocWithMerge > r.AllocWithoutMerge {
			t.Errorf("%s: merge increased allocation", r.Name)
		}
		if r.AliveWithGC > r.AliveWithoutGC {
			t.Errorf("%s: GC increased peak live nodes", r.Name)
		}
	}
}

// TestExperimentsAreDeterministic: the same seeds reproduce the same
// Table 2 counts run to run (the property that makes EXPERIMENTS.md's
// snapshots regenerable).
func TestExperimentsAreDeterministic(t *testing.T) {
	a := Table2(DefaultSeeds, 1, false)
	b := Table2(DefaultSeeds, 1, false)
	for i := range a {
		if a[i].AtomizerNonSerial != b[i].AtomizerNonSerial ||
			a[i].VeloNonSerial != b[i].VeloNonSerial ||
			a[i].Missed != b[i].Missed ||
			a[i].VeloWarnings != b[i].VeloWarnings {
			t.Fatalf("%s: counts differ between identical runs", a[i].Name)
		}
	}
}

// TestCoverageFrontLoaded reproduces the "first run finds most" claim:
// the first seed finds at least 70% of what five seeds find, for both
// tools, and the curve is monotone.
func TestCoverageFrontLoaded(t *testing.T) {
	c := Coverage(DefaultSeeds, 1)
	last := len(c.Seeds) - 1
	for i := 1; i <= last; i++ {
		if c.CumVelo[i] < c.CumVelo[i-1] || c.CumAtom[i] < c.CumAtom[i-1] {
			t.Fatal("coverage curve must be monotone")
		}
	}
	if 10*c.CumVelo[0] < 7*c.CumVelo[last] {
		t.Errorf("velodrome first run found %d of %d; paper says the majority come first",
			c.CumVelo[0], c.CumVelo[last])
	}
	if 10*c.CumAtom[0] < 7*c.CumAtom[last] {
		t.Errorf("atomizer first run found %d of %d", c.CumAtom[0], c.CumAtom[last])
	}
}
