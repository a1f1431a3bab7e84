package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tally collects what one timed window observed: for every client and
// every input, each time that client had that input checked — how many
// events were checked, how long the client waited for the verdict, and
// whether the verdict matched its reference.
//
// The end-to-end figures are taken from the fastest repetition of the same
// work, not from the middle of the distribution. On a shared host
// interference only ever adds time, in stretches that last seconds: over
// 200 s of identical 8 ms passes on the 2-CPU host this was written on,
// the median of a 10 s window moved by 26% between windows (distance
// between quartiles over median), its mean by 37%, and its minimum by 5%.
// A bound of a tenth or a quarter can only be applied to the last of
// these. It is a fair figure only where a repetition is the same
// CPU-bound work every time, so the workloads are built that way. What the
// system itself adds to the slow end — queueing, fsync stalls, GC — is
// reported from the raw latencies as the p95 and p99 layer metrics.
type tally struct {
	mu        sync.Mutex
	cells     [][]cell  // [client][input]
	latencies []float64 // every verdict's latency in ms, in arrival order
	events    int64
	wall      time.Duration // the whole window
	cpu       time.Duration // user+sys of the process(es) under test over the window
	attempted int
	failed    int
	failures  []string // first few, for the result file and stderr
	extra     map[string]float64
}

// cell is what one client saw of one input: the best of its repetitions.
type cell struct {
	n        int
	minWall  time.Duration // fastest verdict
	bestRate float64       // most events per second in one repetition
}

func newTally(clients, inputs int) *tally {
	t := &tally{cells: make([][]cell, clients), extra: map[string]float64{}}
	for c := range t.cells {
		t.cells[c] = make([]cell, inputs)
	}
	return t
}

// observe records one verdict: client had input checked, which covered
// events events and took wall; problem is "" when the verdict matched its
// reference.
func (t *tally) observe(client, input int, events int64, wall time.Duration, problem string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.events += events
	t.latencies = append(t.latencies, float64(wall.Nanoseconds())/1e6)
	if problem != "" {
		t.failed++
		if len(t.failures) < 8 {
			t.failures = append(t.failures, problem)
		}
		return
	}
	c := &t.cells[client][input]
	if c.n == 0 || wall < c.minWall {
		c.minWall = wall
	}
	c.bestRate = max(c.bestRate, float64(events)/wall.Seconds())
	c.n++
}

func (t *tally) add(key string, v float64) {
	t.mu.Lock()
	t.extra[key] += v
	t.mu.Unlock()
}

// rates folds the cells into the end-to-end rates. Per client: the
// verdicts of one round of its inputs over the time that round takes when
// every input takes its fastest observed time, and the events of that
// round at each input's best rate — a closed-loop client is always waiting
// for a verdict, so that is its throughput — summed over the clients.
// (Rate and time are kept apart because a target run's time is fixed and
// its events are not.) The latency is the median, over clients and inputs,
// of the fastest time to a verdict. samples is the smallest number of
// repetitions any cell's figure was chosen from.
func (t *tally) rates() (eventsPerSecond, sessionsPerSecond, verdictP50Ms float64, samples int) {
	var fastest []float64
	for _, client := range t.cells {
		var events, verdicts, seconds float64
		for _, c := range client {
			if c.n == 0 {
				continue
			}
			events += c.bestRate * c.minWall.Seconds()
			verdicts++
			seconds += c.minWall.Seconds()
			fastest = append(fastest, float64(c.minWall.Nanoseconds())/1e6)
			if samples == 0 || c.n < samples {
				samples = c.n
			}
		}
		if seconds > 0 {
			eventsPerSecond += events / seconds
			sessionsPerSecond += verdicts / seconds
		}
	}
	return eventsPerSecond, sessionsPerSecond, median(fastest), samples
}

func (t *tally) eventsPerSecond() float64 {
	eps, _, _, _ := t.rates()
	return eps
}

func (t *tally) samples() int {
	_, _, _, n := t.rates()
	return n
}

// cpuMicrosPerEvent is the CPU the system under test spends per event:
// the cores it kept busy over the window (CPU over wall, a ratio that
// interference stretching both alike leaves alone) over the events it
// checks per second.
func (t *tally) cpuMicrosPerEvent() float64 {
	return t.cpu.Seconds() / t.wall.Seconds() / t.eventsPerSecond() * 1e6
}

// nsPerEvent is the wall time one client waits per event.
func (t *tally) nsPerEvent() float64 {
	return 1e9 * float64(len(t.cells)) / t.eventsPerSecond()
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics. v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU reads the user+system CPU time of a live process from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// procPeakRSSMB reads VmHWM of a live process, in MiB.
func procPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(rest, "%f", &kb) // leaves 0 on a line it cannot read
			return kb / 1024
		}
	}
	return 0
}

// loadAverage is the 1-minute load average, or -1 where /proc has none.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// timeReps runs fn again and again for at least budget (and at least
// three times) and returns the fastest duration: an isolated layer gets as
// many chances to meet a quiet moment as the windows it is compared with
// (see tally for why the fastest).
func timeReps(budget time.Duration, fn func()) time.Duration {
	best := time.Duration(0)
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < budget; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
