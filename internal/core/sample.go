package core

import "repro/internal/span"

// Stage timing. A step is ~20 ns and a pair of clock reads ~75, so a
// checker with Options.Spans set times a sample of its operations: every
// one of its first sampleStride (a short session is attributed exactly),
// then one per stride, at an offset drawn per stride from a fixed-seed
// xorshift generator, booked for the whole stride. Random offsets cannot
// keep step with a trace whose period divides the stride, as a fixed
// stride would; the fixed seed makes every run over a trace time the same
// operations.
const (
	sampleStrideLog = 6
	sampleStride    = 1 << sampleStrideLog
	sampleSeed      = 0x9E3779B97F4A7C15
	recalEvery      = 64 // timed operations per measurement of the clock's cost, which drifts with the host
	outlierCap      = 64 // bound on one stride-scaled reading, in multiples of its stage's mean
)

// sampler is a checker's sampling state, live only with Options.Spans.
type sampler struct {
	seen    int64  // operations offered to Step and SkipFiltered so far
	timeAt  int64  // index of the next operation to time
	rng     uint64 // xorshift64 state
	timings int64  // operations timed so far
	clockNs int64  // what the clock itself adds to a timed interval
	began   int64  // clock reading at the first timed operation
	booked  int64  // nanoseconds booked to the filter and graph stages since
}

// untimed offers the sampler the next n operations. It returns how many
// of them run before the next one to time; when that is fewer than n, the
// one behind them has been offered too and is the one to time.
func (s *sampler) untimed(n int) int {
	k := min(int64(n), max(0, s.timeAt-s.seen))
	s.seen += k
	if k < int64(n) {
		s.seen++
	}
	return int(k)
}

// sampled reports whether the operation now offered is one to time. It is
// the whole cost of tracing an operation that is not.
func (s *sampler) sampled() bool { return s.untimed(1) == 0 }

// schedule picks the operation to time after the one just timed and
// returns how many operations that one stood for.
func (s *sampler) schedule() int64 {
	i := s.seen - 1
	if s.timeAt = i + 1; s.timeAt >= sampleStride { // past the exact prefix
		s.rng ^= s.rng << 13
		s.rng ^= s.rng >> 7
		s.rng ^= s.rng << 17
		s.timeAt = (i/sampleStride+1)*sampleStride + int64(s.rng>>(64-sampleStrideLog))
	}
	if i < sampleStride {
		return 1
	}
	return sampleStride
}

// timing is what startTimed hands to endTimed.
type timing struct{ start, filtered, forensics int64 }

// startTimed and endTimed put one sampled operation between two clock
// reads and book it to the filter or graph stage, by whether it was a
// filter hit, net of the clock's own cost and of the forensics assembly
// record booked in between, scaled by what it stands for.
func (c *common) startTimed() timing {
	if c.timings%recalEvery == 0 {
		c.clockNs = span.ClockPairNs()
	}
	c.timings++
	return timing{filtered: c.snap.Filtered, forensics: c.opts.Spans.StageNs(span.StageForensics), start: span.Nanotime()}
}

func (c *common) endTimed(t timing) {
	end := span.Nanotime()
	b := c.opts.Spans
	hits := c.schedule()
	if c.timings == 1 {
		c.began = t.start
	}
	stage := span.StageGraph
	if c.snap.Filtered != t.filtered {
		stage = span.StageFilter
	}
	ns := end - t.start - c.clockNs - (b.StageNs(span.StageForensics) - t.forensics)
	if n := b.StageHits(stage); hits > 1 && n > 0 {
		// A preemption is as likely to land in the timed window as in the
		// untimed steps around it, and would be booked for a whole stride:
		// the engine's own slow operations pass this cap, the scheduler's
		// milliseconds do not.
		ns = min(ns, outlierCap*max(1, b.StageNs(stage)/n))
	}
	// The parts may not exceed the whole, on any run: never book more than
	// the time that has passed since this checker's first timed operation.
	ns = max(0, min(ns*hits, end-c.began-c.booked))
	c.booked += ns
	b.AddStageN(stage, ns, hits)
}
