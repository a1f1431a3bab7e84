package obs

import (
	"math"
	"sync"
	"testing"
)

// TestBucketBoundaries pins the power-of-two bucketing: bucket i counts
// exactly the values in (2^(i-1), 2^i], with 0 and 1 in bucket 0 and
// everything beyond 2^(NumBuckets-1) in the +Inf overflow bucket.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4},
		{1023, 10}, {1024, 10}, {1025, 11},
		{BucketBound(NumBuckets - 1), NumBuckets - 1},
		{BucketBound(NumBuckets-1) + 1, NumBuckets},
		{1 << 40, NumBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	var h Histogram
	h.Observe(-5) // clamps to 0
	h.Observe(1024)
	h.Observe(1 << 40)
	s := h.snapshot()
	if s.Counts[0] != 1 || s.Counts[10] != 1 || s.Counts[NumBuckets] != 1 {
		t.Errorf("unexpected bucket counts: %v", s.Counts)
	}
	if s.Count != 3 || s.Max != 1<<40 {
		t.Errorf("count=%d max=%d", s.Count, s.Max)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations of 100ns, 10 of 10000ns.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10_000)
	}
	s := h.snapshot()
	if s.Count != 110 || s.Sum != 100*100+10*10_000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	// p50 must land in the bucket containing 100 (64,128]; p99 in the
	// bucket containing 10000, clamped by the exact max.
	if p := s.Quantile(0.50); p <= 64 || p > 128 {
		t.Errorf("p50 = %v, want in (64,128]", p)
	}
	if p := s.Quantile(0.99); p <= 8192 || p > 10_000 {
		t.Errorf("p99 = %v, want in (8192,10000]", p)
	}
	if p := s.Quantile(1); p != 10_000 {
		t.Errorf("p100 = %v, want exactly the max", p)
	}
	// Quantiles are monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Errorf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if m := s.Mean(); m < 100 || m > 10_000 {
		t.Errorf("mean = %v out of range", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Count != 0 {
		t.Errorf("empty histogram: %+v", s)
	}
}

// TestQuantileNeverNaN pins the JSON-consumer contract: Quantile returns
// a finite, non-negative value for every snapshot it can be handed —
// live, empty, overflow-only, or decoded from inconsistent JSON.
func TestQuantileNeverNaN(t *testing.T) {
	finite := func(name string, s HistogramSnapshot) {
		t.Helper()
		for _, q := range []float64{0, 0.5, 0.99, 1, -1, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
			v := s.Quantile(q)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: Quantile(%v) = %v, want finite non-negative", name, q, v)
			}
		}
	}

	finite("empty", HistogramSnapshot{})

	// Single observation past the finite range: only the +Inf overflow
	// bucket is populated.
	var h Histogram
	h.Observe(1 << 40)
	s := h.snapshot()
	finite("single overflow", s)
	if p := s.Quantile(0.5); p <= float64(BucketBound(NumBuckets-1)) || p > 1<<40 {
		t.Errorf("overflow-only p50 = %v, want in (2^%d, 2^40]", p, NumBuckets-1)
	}
	if p := s.Quantile(1); p != 1<<40 {
		t.Errorf("overflow-only p100 = %v, want the max (%d)", p, int64(1)<<40)
	}

	// Snapshots a JSON consumer could construct: counts without a
	// matching Count, an overflow count with no Max, a negative Max,
	// and a Count with no buckets at all.
	over := make([]int64, NumBuckets+1)
	over[NumBuckets] = 7
	finite("overflow without max", HistogramSnapshot{Count: 7, Counts: over})
	finite("negative max", HistogramSnapshot{Count: 7, Max: -5, Counts: over})
	finite("count without buckets", HistogramSnapshot{Count: 3, Max: 100})
	finite("negative count", HistogramSnapshot{Count: -3, Max: 100, Counts: over})
}

// TestConcurrentObserve exercises the lock-free paths under -race (see
// the tier-1 recipe in ROADMAP.md).
func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 3000))
				// Concurrent get-or-create must hand back the same instrument.
				if r.Counter("c_total") != c {
					t.Error("registry returned a different counter")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if h.max.Load() != 2999 {
		t.Errorf("max = %d, want 2999", h.max.Load())
	}
}
