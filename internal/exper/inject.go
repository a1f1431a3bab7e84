package exper

import (
	"repro/internal/bench"
	"repro/internal/rr"
)

// InjectResult summarizes the defect-injection experiment of Section 6
// for one workload: each contention-inducing synchronized statement that
// guards an otherwise-atomic method is removed in turn, the corrupted
// program is run once per seed, and a trial counts as a detection when
// Velodrome blames the now-unprotected method.
type InjectResult struct {
	Workload  string
	Trials    int
	PlainHits int // detections without scheduler adjustment
	AdvHits   int // detections with the adversarial scheduler
	PerPoint  []InjectTrial
	PlainRate float64
	AdvRate   float64
}

// InjectTrial is one (sync point × seed) trial.
type InjectTrial struct {
	Point    string
	Method   string
	Seed     int64
	Plain    bool
	Adversry bool
}

// Inject runs the experiment on the named workloads (the paper uses
// elevator and colt).
func Inject(names []string, seeds []int64, scale int) []InjectResult {
	var out []InjectResult
	for _, name := range names {
		w := bench.ByName(name)
		if w == nil || len(w.InjectionPoints) == 0 {
			continue
		}
		res := InjectResult{Workload: name}
		for _, inj := range w.InjectionPoints {
			for _, seed := range seeds {
				trial := InjectTrial{Point: inj.Point, Method: inj.Method, Seed: seed}
				trial.Plain = policyCaught(w, inj, seed, scale, nil)
				trial.Adversry = policyCaught(w, inj, seed, scale, rr.NewAtomizerAdvisor())
				res.Trials++
				if trial.Plain {
					res.PlainHits++
				}
				if trial.Adversry {
					res.AdvHits++
				}
				res.PerPoint = append(res.PerPoint, trial)
			}
		}
		if res.Trials > 0 {
			res.PlainRate = float64(res.PlainHits) / float64(res.Trials)
			res.AdvRate = float64(res.AdvHits) / float64(res.Trials)
		}
		out = append(out, res)
	}
	return out
}
