// Package exper regenerates the paper's evaluation (Section 6): Table 1
// (running times, slowdowns, and happens-before graph statistics),
// Table 2 (Atomizer vs Velodrome warnings under the assumption that all
// methods are atomic), and the defect-injection/adversarial-scheduling
// experiment. See DESIGN.md's experiment index.
package exper

import (
	"runtime"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
)

// DefaultSeeds are the five scheduler seeds standing in for the paper's
// five runs.
var DefaultSeeds = []int64{1, 2, 3, 4, 5}

// HostInfo records the machine a measurement ran on; the benchmark
// ledger embeds it in every result so that two runs are only compared
// when the parallelism available to them was the same.
type HostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// CollectHost snapshots the current machine.
func CollectHost() HostInfo {
	return HostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// RunResult is the outcome of one workload run under both checkers.
type RunResult struct {
	Report *rr.Report
	// VeloMethods are the method labels blamed by Velodrome.
	VeloMethods map[string]bool
	// VeloWarnings/VeloBlamed feed the blame-assignment statistic.
	VeloWarnings int
	VeloBlamed   int
	// AtomMethods are the method labels flagged by the Atomizer.
	AtomMethods map[string]bool
}

// RunBoth executes the workload once under Velodrome and the Atomizer
// simultaneously (as Section 5 suggests), optionally with the adversarial
// scheduler.
func RunBoth(w *bench.Workload, seed int64, p bench.Params, adversarial bool) *RunResult {
	velo := rr.NewVelodrome(core.Options{})
	atom := rr.NewAtomizer()
	opts := rr.Options{Seed: seed, Backend: rr.Multi{velo, atom}}
	if adversarial {
		adv := rr.NewAtomizerAdvisor()
		opts.Backend = rr.Multi{velo, atom, adv}
		opts.Advisor = adv
	}
	rep := rr.Run(opts, func(t *rr.Thread) { w.Body(t, p) })
	res := &RunResult{
		Report:      rep,
		VeloMethods: map[string]bool{},
		AtomMethods: map[string]bool{},
	}
	for _, warn := range velo.Warnings() {
		res.VeloWarnings++
		if m := warn.Method(); m != "" {
			res.VeloBlamed++
			res.VeloMethods[string(m)] = true
		}
	}
	for _, warn := range atom.Warnings() {
		res.AtomMethods[string(warn.Label)] = true
	}
	return res
}

// Classify splits a warned-method set into real (ground-truth non-atomic)
// and false-alarm counts for the workload.
func Classify(w *bench.Workload, methods map[string]bool) (real, falseAlarms int, realSet map[string]bool) {
	realSet = map[string]bool{}
	for m := range methods {
		truth, known := w.Truth[m]
		switch {
		case !known:
			// A warning on an unlabeled method would be a harness bug;
			// count it as a false alarm so it cannot hide.
			falseAlarms++
		case truth == bench.Atomic:
			falseAlarms++
		default:
			real++
			realSet[m] = true
		}
	}
	return real, falseAlarms, realSet
}

// union merges method sets.
func union(dst, src map[string]bool) {
	for k := range src {
		dst[k] = true
	}
}

// sortedKeys returns the set's keys in order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
