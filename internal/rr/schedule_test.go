package rr_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/rr"
)

// scheduleGolden pins the scheduler's decisions: for every Table 1
// program × seeds 1–3 at scale 3 in four modes (plain recording, the
// thread-local filter, the Atomizer advisor as back-end and advisor with
// velodrome -adversarial's park length, and MaxSteps truncation), for a
// two-lock program that deadlocks on some seeds, and for runs that mirror
// onto a registry, it records every Report field, the rr_* counters (when
// a registry is attached) and a SHA-256 of the recorded trace. The
// scheduler may hand control over any way it likes; a decision may not
// move without this file saying so. Regenerate with
//
//	go test ./internal/rr -run ScheduleGolden -update-rr-golden
const scheduleGolden = "testdata/schedule.golden"

var updateScheduleGolden = flag.Bool("update-rr-golden", false, "rewrite "+scheduleGolden)

var rrCounters = []string{
	"rr_sched_steps_total", "rr_events_total", "rr_delays_total",
	"rr_threads_total", "rr_deadlocks_total", "rr_truncations_total",
}

// scheduleLine is one golden line without its key.
func scheduleLine(rep *rr.Report, reg *obs.Registry) string {
	line := fmt.Sprintf("steps=%d events=%d threads=%d delays=%d deadlocked=%v truncated=%v len=%d %x",
		rep.Steps, rep.Events, rep.Threads, rep.Delays, rep.Deadlocked, rep.Truncated,
		len(rep.Trace), sha256.Sum256([]byte(rep.Trace.String())))
	if reg != nil {
		var vals []string
		for _, name := range rrCounters {
			vals = append(vals, fmt.Sprint(reg.Counter(name).Value()))
		}
		line += fmt.Sprintf(" rr=%s live=%d", strings.Join(vals, "/"), reg.Gauge("rr_threads_live").Value())
	}
	return line
}

// twoLocks takes a and b in opposite orders on two threads: whether it
// deadlocks depends on the seed.
func twoLocks(th *rr.Thread) {
	rt := th.Runtime()
	a, b := rt.NewMutex("a"), rt.NewMutex("b")
	x := rt.NewVar("x")
	h1 := th.Fork(func(c *rr.Thread) {
		a.Lock(c)
		x.Add(c, 1)
		b.Lock(c)
		b.Unlock(c)
		a.Unlock(c)
	})
	h2 := th.Fork(func(c *rr.Thread) {
		b.Lock(c)
		x.Add(c, 1)
		a.Lock(c)
		a.Unlock(c)
		b.Unlock(c)
	})
	th.Join(h1)
	th.Join(h2)
}

func TestScheduleGolden(t *testing.T) {
	got := map[string]string{}
	run := func(key string, opts rr.Options, body func(*rr.Thread)) {
		opts.Record = true
		got[key] = scheduleLine(rr.Run(opts, body), opts.Metrics)
	}
	modes := []struct {
		name string
		opts func(seed int64) rr.Options
	}{
		{"record", func(seed int64) rr.Options { return rr.Options{Seed: seed} }},
		{"threadlocal", func(seed int64) rr.Options { return rr.Options{Seed: seed, FilterThreadLocal: true} }},
		{"advisor", func(seed int64) rr.Options {
			adv := rr.NewAtomizerAdvisor()
			return rr.Options{Seed: seed, Backend: adv, Advisor: adv}
		}},
		{"maxsteps", func(seed int64) rr.Options { return rr.Options{Seed: seed, MaxSteps: 500} }},
	}
	for _, w := range bench.All() {
		body := func(th *rr.Thread) { w.Body(th, bench.Params{Scale: 3}) }
		for seed := int64(1); seed <= 3; seed++ {
			for _, m := range modes {
				run(fmt.Sprintf("%s/seed=%d/%s", w.Name, seed, m.name), m.opts(seed), body)
			}
		}
		opts := rr.Options{Seed: 1, Metrics: obs.NewRegistry()}
		run(w.Name+"/seed=1/metrics", opts, body)
	}
	deadlocks := 0
	for seed := int64(1); seed <= 20; seed++ {
		opts := rr.Options{Seed: seed, Metrics: obs.NewRegistry()}
		key := fmt.Sprintf("twolocks/seed=%02d", seed)
		run(key, opts, twoLocks)
		if strings.Contains(got[key], "deadlocked=true") {
			deadlocks++
		}
	}
	if deadlocks == 0 || deadlocks == 20 {
		t.Errorf("twoLocks deadlocked on %d of 20 seeds; want some but not all", deadlocks)
	}

	var lines []string
	for key, value := range got {
		lines = append(lines, key+" = "+value)
	}
	slices.Sort(lines)
	text := strings.Join(lines, "\n") + "\n"
	if *updateScheduleGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scheduleGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(scheduleGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, value, _ := strings.Cut(line, " = ")
		want[key] = value
	}
	for key, value := range got {
		if want[key] != value {
			t.Errorf("%s:\n got    %s\n golden %s", key, value, want[key])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d runs, %s lists %d", len(got), scheduleGolden, len(want))
	}
}
