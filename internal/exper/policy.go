package exper

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
	"repro/internal/trace"
)

// PolicyResult is the detection rate of one adversarial scheduling policy
// on the defect-injection trials — the policy exploration Section 5
// sketches ("pausing writes but not reads, allowing some threads to never
// pause, and so on").
type PolicyResult struct {
	Policy string
	Trials int
	Hits   int
	Rate   float64
}

// policies enumerated for the study.
var policies = []struct {
	name string
	mk   func() *rr.AtomizerAdvisor
}{
	{"none", func() *rr.AtomizerAdvisor { return nil }},
	{"reads+writes", func() *rr.AtomizerAdvisor { return rr.NewAtomizerAdvisor() }},
	{"writes-only", func() *rr.AtomizerAdvisor {
		a := rr.NewAtomizerAdvisor()
		a.PauseReads = false
		return a
	}},
	{"reads-only", func() *rr.AtomizerAdvisor {
		a := rr.NewAtomizerAdvisor()
		a.PauseWrites = false
		return a
	}},
	{"spare-main", func() *rr.AtomizerAdvisor {
		a := rr.NewAtomizerAdvisor()
		a.NeverPause = map[trace.Tid]bool{1: true}
		return a
	}},
}

// PolicyStudy runs the defect-injection trials of the named workloads
// under each pause policy.
func PolicyStudy(names []string, seeds []int64, scale int) []PolicyResult {
	var out []PolicyResult
	for _, pol := range policies {
		res := PolicyResult{Policy: pol.name}
		for _, name := range names {
			w := bench.ByName(name)
			if w == nil {
				continue
			}
			for _, inj := range w.InjectionPoints {
				for _, seed := range seeds {
					res.Trials++
					if policyCaught(w, inj, seed, scale, pol.mk()) {
						res.Hits++
					}
				}
			}
		}
		if res.Trials > 0 {
			res.Rate = float64(res.Hits) / float64(res.Trials)
		}
		out = append(out, res)
	}
	return out
}

// policyCaught runs the corrupted program once, under adv unless it is
// nil, and reports whether Velodrome blamed the unprotected method.
func policyCaught(w *bench.Workload, inj bench.Injection, seed int64, scale int, adv *rr.AtomizerAdvisor) bool {
	velo := rr.NewVelodrome(core.Options{})
	opts := rr.Options{Seed: seed, Backend: velo}
	if adv != nil {
		opts.Backend = rr.Multi{velo, adv}
		opts.Advisor = adv
	}
	p := bench.Params{Scale: scale, Disabled: map[string]bool{inj.Point: true}}
	rr.Run(opts, func(t *rr.Thread) { w.Body(t, p) })
	for _, warn := range velo.Warnings() {
		if string(warn.Method()) == inj.Method {
			return true
		}
	}
	return false
}
