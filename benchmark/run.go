package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// config is what one run of one workload is given.
type config struct {
	seed    int64
	seconds float64 // length of the measured window
	smoke   bool    // about 1% of every size, for the smoke test
	workDir string  // scratch space: binaries, sockets, store directories
	outDir  string  // where the Chrome traces go
}

// sized scales an input size down to about 1% in smoke mode.
func (c *config) sized(n int) int {
	if c.smoke {
		return max(n/100, 1)
	}
	return n
}

// clients is the closed-loop client count: two, and never more than the
// host has CPUs, so the load generator does not queue behind itself.
func clients() int { return min(2, runtime.NumCPU()) }

// workload is one set of inputs with the loop that drives it.
type workload interface {
	// setUp builds everything the run needs from the seed: inputs and
	// their reference verdicts, binaries, daemons. All of it counts in
	// setup_s. It may be called again after tearDown.
	setUp(c *config) error
	// tearDown stops processes and removes sockets and directories; it is
	// safe after a failed or repeated setUp.
	tearDown()
	// window drives the workload in a closed loop for d and returns what
	// it observed. tr is nil in the untraced run.
	window(c *config, d time.Duration, tr *tracer) (*tally, error)
	// layers measures the layers on this workload's path in isolation,
	// given the untraced window of the same traced run for the ledger.
	layers(c *config, tr *tracer, e2e *tally) (map[string]float64, error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "check-loop":
		return newCheckLoop(), nil
	case "check-dense":
		return newCheckDense(), nil
	case "daemon-stream":
		return &daemonWorkload{}, nil
	case "target-hotloop":
		return &targetWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run in a result file: the result plus what a reader needs
// to judge it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
	Samples       int                `json:"samples"`
	WarmupSamples int                `json:"warmup_samples"`
	SetupRuns     int                `json:"setup_runs"`
	Failures      []string           `json:"failures,omitempty"`
	SelfMs        map[string]float64 `json:"span_self_ms,omitempty"`
	ChromeTrace   string             `json:"chrome_trace,omitempty"`
}

// execute sets the workload up (five times, for a steady setup_s),
// then runs it untraced for the end-to-end metrics and/or traced for the
// per-layer metrics.
func execute(c *config, name string, untraced, traced bool) ([]*record, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	defer w.tearDown()
	setupRuns := 5
	if c.smoke {
		setupRuns = 1
	}
	setups := make([]float64, setupRuns)
	for i := range setups {
		w.tearDown()
		t0 := time.Now()
		if err := w.setUp(c); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	window := time.Duration(c.seconds * float64(time.Second))
	newRecord := func(traced bool, t *tally) *record {
		return &record{
			Workload: name, Seed: c.seed, Traced: traced,
			result: result{
				Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
				Metrics: map[string]metricValue{},
			},
			Samples: t.samples(), SetupRuns: setupRuns, Failures: t.failures,
		}
	}

	var recs []*record
	if untraced {
		// Warm-up: at least a tenth of the measured work, discarded.
		warm, err := w.window(c, window/10, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
		t, err := w.window(c, window, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rec := newRecord(false, t)
		rec.WarmupSamples = warm.samples()
		eps, sps, p50, _ := t.rates()
		values := map[string]float64{
			"setup_s":          median(setups),
			"events_per_s":     eps,
			"cpu_us_per_event": t.cpuMicrosPerEvent(),
			"sessions_per_s":   sps,
			"verdict_p50_ms":   p50,
		}
		if err := rec.fill(endToEndMetrics, values); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		recs = append(recs, rec)
	}
	if traced {
		// Half the window untraced, half traced: the difference is what
		// the benchmark's own spans cost. Layers are measured afterwards.
		plain, err := w.window(c, window/2, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tr := newTracer()
		t, err := w.window(c, window/2, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", name, err)
		}
		values, err := w.layers(c, tr, plain)
		if err != nil {
			return nil, fmt.Errorf("%s: layers: %w", name, err)
		}
		values["ledger.trace_overhead_share"] = 1 - t.eventsPerSecond()/plain.eventsPerSecond()
		rec := newRecord(true, t)
		rec.Attempted += plain.attempted
		rec.Failed += plain.failed
		rec.Correct = rec.Correct && plain.failed == 0
		rec.Failures = append(rec.Failures, plain.failures...)
		if err := rec.fill(perLayerMetrics, values); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rec.SelfMs = tr.selfMs()
		if rec.ChromeTrace, err = tr.write(c.outDir, name); err != nil {
			return nil, fmt.Errorf("%s: writing the Chrome trace: %w", name, err)
		}
		recs = append(recs, rec)
	}
	for _, rec := range recs {
		for _, f := range rec.Failures {
			fmt.Fprintf(os.Stderr, "benchmark: %s: wrong output: %s\n", name, f)
		}
	}
	return recs, nil
}

// fill stores every metric of defs in the record. A layer that is not on
// the workload's path has no entry in values and reads 0; a value that is
// not a finite number is a bug in the benchmark and fails the run.
func (r *record) fill(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}
