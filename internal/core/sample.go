package core

import "repro/internal/span"

// Stage accounting. A step is ~10-20 ns and a clock reading ~30-65, so a
// checker with Options.Spans set accounts for a sample of its operations.
// It picks every one of its first sampleStride (a short session is
// counted exactly), then one per stride, at an offset drawn per stride
// from a fixed-seed xorshift generator, and counts each pick to the filter
// or the graph stage, by whether the engine's filter discarded it, for the
// operations it stands for: itself in the prefix, its stride after it.
// Random offsets cannot keep step with a trace whose period divides the
// stride, as a fixed stride would; the fixed seed makes every run over a
// trace pick the same operations. A pick splits the engine's loop around
// it, ~20 ns; putting it between two clock readings costs ~150 ns more,
// so only some picks are timed: the first timedPrefix, each for itself,
// then every timeEvery-th, its reading standing for every operation the
// picks since the last timed one stood for.
const (
	sampleStrideLog = 6
	sampleStride    = 1 << sampleStrideLog
	sampleSeed      = 0x9E3779B97F4A7C15
	timedPrefix     = 16
	timeEvery       = 16
	recalEvery      = 64 // timed operations per measurement of the clock's cost, which drifts with the host
	outlierCap      = 64 // bound on one scaled reading, in multiples of its stage's mean
)

// sampler is a checker's sampling state, live only with Options.Spans.
type sampler struct {
	seen    int64  // operations offered to Step and SkipFiltered so far
	pickAt  int64  // index of the next operation to pick
	rng     uint64 // xorshift64 state
	picks   int64  // operations picked so far
	owed    int64  // operations the picks since the last timed one stood for
	timings int64  // operations timed so far
	clockNs int64  // what the clock itself adds to a timed interval
	began   int64  // clock reading at the first timed operation
	booked  int64  // nanoseconds booked to the filter and graph stages since
}

// unpicked offers the sampler the next n operations. It returns how many
// of them run before the next one to pick; when that is fewer than n, the
// one behind them has been offered too and is the one to pick.
func (s *sampler) unpicked(n int) int {
	k := min(int64(n), max(0, s.pickAt-s.seen))
	s.seen += k
	if k < int64(n) {
		s.seen++
	}
	return int(k)
}

// picked reports whether the operation now offered is one to pick. It is
// the whole cost of tracing an operation that is not.
func (s *sampler) picked() bool { return s.unpicked(1) == 0 }

// timed reports whether the pick now offered is one to time.
func (s *sampler) timed() bool {
	p := s.picks
	s.picks++
	return p < timedPrefix || (p-timedPrefix)%timeEvery == timeEvery-1
}

// schedule picks the operation after the one just picked and returns how
// many operations that one stood for.
func (s *sampler) schedule() int64 {
	i := s.seen - 1
	if s.pickAt = i + 1; s.pickAt >= sampleStride { // past the exact prefix
		s.rng ^= s.rng << 13
		s.rng ^= s.rng >> 7
		s.rng ^= s.rng << 17
		s.pickAt = (i/sampleStride+1)*sampleStride + int64(s.rng>>(64-sampleStrideLog))
	}
	if i < sampleStride {
		return 1
	}
	return sampleStride
}

// count books the pick just run to the filter or the graph stage, by
// whether the engine's filter count moved past filtered, for the
// operations it stands for, and returns the stage.
func (c *common) count(filtered int64) span.Stage {
	hits := c.schedule()
	c.owed += hits
	stage := span.StageGraph
	if c.snap.Filtered != filtered {
		stage = span.StageFilter
	}
	c.opts.Spans.AddStageN(stage, 0, hits)
	return stage
}

// timing is what startTimed hands to endTimed.
type timing struct{ start, filtered, forensics int64 }

// startTimed and endTimed put a pick between two clock readings: endTimed
// counts it as count does, and books the reading to its stage net of the
// clock's own cost and of the forensics assembly booked in between,
// scaled by what the picks since the last timed one stood for.
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
	stage := c.count(t.filtered)
	b.Stamp(end) // the warnings since the last reading, this operation's included
	if c.timings == 1 {
		c.began = t.start
	}
	ns := end - t.start - c.clockNs - (b.StageNs(span.StageForensics) - t.forensics)
	if m := b.StageNs(stage); c.owed > 1 && m > 0 {
		// A preemption is as likely to land in the timed window as in the
		// untimed steps around it, and would be booked for all of them:
		// the engine's own slow operations pass this cap, the scheduler's
		// milliseconds do not.
		ns = min(ns, outlierCap*max(1, m/b.StageHits(stage)))
	}
	// The parts may not exceed the whole, on any run: never book more than
	// the time that has passed since this checker's first timed operation.
	ns = max(0, min(ns*c.owed, end-c.began-c.booked))
	c.booked += ns
	c.owed = 0
	b.AddStageN(stage, ns, 0)
}
