package main

import (
	"bytes"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// The in-process workloads: binary-encoded traces in memory, streamed
// through trace.NewDecoder into core.CheckStream with the default
// (optimized) engine — what `tracecheck file.bin` does after opening the
// file. A window passes over the inputs again and again; each check of
// each input is one verdict.

const (
	// Sizes fit the contract's per-run budget and the host's noise. Set-up
	// (generation, encoding and two reference passes) is repeated three
	// times a run; and one check of one input must be short — around ten
	// milliseconds — because the figure kept is the fastest repetition,
	// and on a shared host only a short repetition fits wholly inside a
	// quiet moment (see tally).
	checkLoopEvents = 250_000
	// Each Table 1 program is recorded under checkDenseRecordings
	// schedules drawn from the seed, so that one unlucky interleaving of
	// jigsaw or webl, which hold half the events, does not set the figure.
	// Together: about 280 000 events and 14 000 warnings.
	checkDenseRecordings = 4
	checkDenseScale      = 5
)

type checkWorkload struct {
	gen    func(c *config) ([]*input, error)
	inputs []*input
}

func newCheckLoop() *checkWorkload {
	return &checkWorkload{gen: func(c *config) ([]*input, error) {
		tr := loopTrace(rand.New(rand.NewSource(c.seed)), c.sized(checkLoopEvents))
		in, err := newInput("loop", tr)
		if err != nil {
			return nil, err
		}
		return []*input{in}, nil
	}}
}

func newCheckDense() *checkWorkload {
	return &checkWorkload{gen: func(c *config) ([]*input, error) {
		if c.smoke {
			return denseCorpus(c.seed, 1, 1)
		}
		return denseCorpus(c.seed, checkDenseRecordings, checkDenseScale)
	}}
}

func (w *checkWorkload) setUp(c *config) (err error) {
	w.inputs, err = w.gen(c)
	return err
}

func (w *checkWorkload) tearDown() { w.inputs = nil }

func (w *checkWorkload) window(c *config, d time.Duration, tr *tracer) (*tally, error) {
	t := newTally(1, len(w.inputs))
	ln := tr.lane("client0")
	defer ln.done()
	cpu0, start := selfCPU(), time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		ln.span("pass", func() {
			for i, in := range w.inputs {
				v0 := time.Now()
				var res *core.Result
				var ops int
				var err error
				ln.span("core.CheckStream", func() {
					res, ops, err = core.CheckStream(trace.NewDecoder(bytes.NewReader(in.bin)), core.Options{})
				})
				lat := time.Since(v0)
				problem := ""
				if err != nil {
					problem = in.name + ": " + err.Error()
				} else if diff := in.ref.matches(res, ops); diff != "" {
					problem = in.name + ": " + diff
				}
				t.observe(0, i, int64(ops), lat, problem)
			}
		})
	}
	t.wall, t.cpu = time.Since(start), selfCPU()-cpu0
	return t, nil
}

func (w *checkWorkload) layers(c *config, tr *tracer, e2e *tally) (map[string]float64, error) {
	ln := tr.lane("layers")
	defer ln.done()
	m, err := checkerLayers(c, w.inputs, ln)
	if err != nil {
		return nil, err
	}
	// Decode and step are the whole pass; what they do not explain is the
	// stream loop's own cost plus the benchmark's verification.
	m["ledger.residual_share"] = 1 - (m["trace.decode_bin_ns_per_event"]+m["core.step_ns_per_event"])/e2e.nsPerEvent()
	return m, nil
}
