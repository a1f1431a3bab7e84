// Package span is a lightweight, allocation-conscious span tracer for
// the checker pipeline: monotonic start/end timestamps, parent links,
// a handful of key/value attributes per span, and per-goroutine
// lock-free buffers. It answers the operational question the aggregate
// counters of internal/obs cannot: *where did this session's time go* —
// header negotiation, decode, the redundant-event filter, graph work,
// forensics assembly — laid out on a timeline a human can scrub.
//
// The contract mirrors the obs registry's: a nil *Tracer (and the nil
// *Buf it hands out) turns every method into a no-op behind a single
// pointer test, so an untraced run pays nothing and produces verdicts
// bit-identical to a build without this package. Spans never touch
// engine state; enabling tracing can change only timing, never results.
//
// Concurrency model: a Buf is owned by exactly one goroutine — the
// daemon gives the decode goroutine and the session goroutine their own
// — so recording a span is an append to a private arena with no atomics
// and no locks. The tracer's mutex is taken only at flush points (every
// flushEvery completed spans, and when the owner calls Flush) and at
// export time, after the owning goroutines have quiesced. Stage
// accounting that would be too hot for one span per event (the filter
// and graph stages see every operation) goes through AddStage and
// AddStageN, plain adds into a per-Buf accumulator, and is materialized
// as synthesized summary spans by the drivers.
//
// What a stage total means depends on who books it. Stages that run once
// per batch, session or warning (header, decode, forensics, verdict) are
// timed every time and their totals are exact. The filter and graph
// stages run once per operation — a step is ~20 ns, a clock
// pair ~75 — so the engines time a sample of their operations (every one
// of a checker's first 64, then one at a pseudo-random offset in each
// 64-operation stride; see internal/core), subtract ClockPairNs from each
// reading and book it through AddStageN scaled by the operations it
// stands for. Those two totals are estimates: the hit counts are within
// one stride of the operations seen, the nanoseconds carry sampling
// error, and tracing a session costs about a nanosecond per operation.
package span

import (
	"slices"
	"sync"
	"time"
)

// Stage names one pipeline stage for the cheap per-Buf accumulators.
// Stages are the aggregate complement to spans: a stage's time is booked
// with one add per timed unit of work — a batch, a warning, a sampled
// operation — and the totals surface in Summary, the daemon's verdict
// metrics block, and /api/sessions.
type Stage uint8

// Pipeline stages, in pipeline order.
const (
	StageHeader Stage = iota
	StageDecode
	StageFilter
	StageGraph
	StageForensics
	StageVerdict
	NumStages
)

var stageNames = [NumStages]string{
	"header", "decode", "filter", "graph", "forensics", "verdict",
}

// String returns the stage's lower-case name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// A SpanID names one span for End/attribute calls and parent links. It
// encodes (buffer, arena index), so an ID minted by any Buf of a tracer
// may serve as the parent of a span on any other Buf. The zero SpanID
// means "no span" (and is what a nil Buf returns).
type SpanID int64

func makeID(buf int32, idx int) SpanID { return SpanID(int64(buf+1)<<32 | int64(idx+1)) }

func (id SpanID) split() (buf int32, idx int) { return int32(id>>32) - 1, int(id&0xffffffff) - 1 }

// An Attr is one key/value pair on a span: either a string or an int64
// payload, kept unboxed so attaching an attribute never allocates.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// maxAttrs is the inline attribute capacity per span. Excess attributes
// are dropped silently — spans are diagnostics, not a database.
const maxAttrs = 4

// record is one span in a Buf's arena. end==0 means still open.
type record struct {
	name       string
	parent     SpanID
	start, end int64
	attrs      [maxAttrs]Attr
	nattrs     int8
	flushed    bool
}

// flushEvery is how many completed spans a Buf accumulates before
// End hands them to the tracer (one mutex acquisition per batch).
const flushEvery = 256

// maxSpans bounds one Buf's arena. Past the cap Start returns 0 and the
// drop is counted; a runaway producer degrades to losing spans, never
// to unbounded memory. At ~100 bytes per record the worst case is a few
// megabytes per buffer.
const maxSpans = 1 << 16

// Tracer collects spans from its Bufs, anchored to one monotonic epoch.
// A nil *Tracer is valid and inert.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	bufs    []*Buf
	flushed []flushedRec
}

// flushedRec is a completed span handed to the tracer, tagged with its
// buffer and arena index so the export can reconstruct per-thread
// tracks and stable span identities.
type flushedRec struct {
	record
	buf int32
	idx int
}

// New returns a Tracer whose clock starts now.
func New() *Tracer { return &Tracer{epoch: time.Now()} }

// processStart anchors Nanotime.
var processStart = time.Now()

// Nanotime reads the process's monotonic clock, in nanoseconds. It is the
// cheapest clock the runtime offers — half a time.Now, which also reads
// the wall clock — for callers that only ever subtract two readings.
func Nanotime() int64 { return int64(time.Since(processStart)) }

// ClockPairNs measures what two back-to-back Nanotime readings differ
// by right now: the part of a timed interval that is the clock's own.
// Whoever books intervals of the clock's order of magnitude — the
// engines' sampled steps — subtracts it, so the booked time is the
// stage's. The figure is the median of a short burst of pairs (well under
// a microsecond); it moves with the host's clock speed, so long-running
// callers measure it again now and then.
func ClockPairNs() int64 {
	var pairs [9]int64
	for i := range pairs {
		t0 := Nanotime()
		pairs[i] = Nanotime() - t0
	}
	slices.Sort(pairs[:])
	return pairs[len(pairs)/2]
}

// Now returns nanoseconds since the tracer's epoch (0 on a nil tracer).
// The reading is monotonic: it can timestamp synthesized spans that
// must nest inside real ones.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Buffer creates a new Buf owned by the calling goroutine. name labels
// the buffer's track in the exported timeline ("session", "decode").
// On a nil tracer it returns nil, which is itself a valid inert Buf.
func (t *Tracer) Buffer(name string) *Buf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &Buf{t: t, id: int32(len(t.bufs)), name: name}
	t.bufs = append(t.bufs, b)
	return b
}

// Buf is a single-owner span buffer: all methods must be called from
// the owning goroutine. A nil *Buf is valid and inert, so call sites
// need no enablement branches beyond what the method itself performs.
type Buf struct {
	t    *Tracer
	id   int32
	name string

	recs     []record
	pending  int // completed spans not yet flushed
	dropped  int64
	stageNs  [NumStages]int64
	stageCnt [NumStages]int64
}

// Start opens a span. parent is an optional enclosing span (0 for a
// root); it may come from another Buf of the same tracer. Returns 0 on
// a nil Buf or when the arena cap is reached.
func (b *Buf) Start(name string, parent SpanID) SpanID {
	if b == nil {
		return 0
	}
	return b.emit(name, parent, b.t.Now(), 0)
}

// Emit records a fully-formed span with explicit timestamps. Drivers
// use it to materialize stage accumulators as summary spans laid
// end-to-end inside a real parent interval.
func (b *Buf) Emit(name string, parent SpanID, start, end int64) SpanID {
	if b == nil {
		return 0
	}
	if end < start {
		end = start
	}
	id := b.emit(name, parent, start, end)
	b.completed()
	return id
}

func (b *Buf) emit(name string, parent SpanID, start, end int64) SpanID {
	if len(b.recs) >= maxSpans {
		b.dropped++
		return 0
	}
	b.recs = append(b.recs, record{name: name, parent: parent, start: start, end: end})
	return makeID(b.id, len(b.recs)-1)
}

// End closes the span. id must have been minted by this Buf; a zero id
// (from a dropped or nil Start) is ignored.
func (b *Buf) End(id SpanID) {
	r := b.rec(id)
	if r == nil || r.end != 0 {
		return
	}
	r.end = b.t.Now()
	if r.end == r.start {
		r.end++ // keep B/E strictly ordered for zero-duration spans
	}
	b.completed()
}

// completed counts one finished span and flushes a full batch.
func (b *Buf) completed() {
	b.pending++
	if b.pending >= flushEvery {
		b.Flush()
	}
}

// rec resolves an id to this Buf's arena record, nil when foreign/zero.
func (b *Buf) rec(id SpanID) *record {
	if b == nil || id == 0 {
		return nil
	}
	buf, idx := id.split()
	if buf != b.id || idx < 0 || idx >= len(b.recs) {
		return nil
	}
	return &b.recs[idx]
}

// AttrStr attaches a string attribute to an open or just-closed span.
func (b *Buf) AttrStr(id SpanID, key, val string) {
	if r := b.rec(id); r != nil && !r.flushed && int(r.nattrs) < maxAttrs {
		r.attrs[r.nattrs] = Attr{Key: key, Str: val}
		r.nattrs++
	}
}

// AttrInt attaches an integer attribute to an open or just-closed span.
func (b *Buf) AttrInt(id SpanID, key string, val int64) {
	if r := b.rec(id); r != nil && !r.flushed && int(r.nattrs) < maxAttrs {
		r.attrs[r.nattrs] = Attr{Key: key, Int: val, IsInt: true}
		r.nattrs++
	}
}

// AddStage adds ns nanoseconds and one hit to a stage accumulator: the
// caller timed one unit of the stage's work. No span record, no clock
// read, two plain adds on goroutine-private memory.
func (b *Buf) AddStage(s Stage, ns int64) { b.AddStageN(s, ns, 1) }

// AddStageN adds ns nanoseconds and hits hits to a stage accumulator:
// the caller timed one unit of work in hits and has already scaled its
// reading to stand for all of them.
func (b *Buf) AddStageN(s Stage, ns, hits int64) {
	if b == nil || s >= NumStages {
		return
	}
	b.stageNs[s] += ns
	b.stageCnt[s] += hits
}

// StageNs returns the accumulated nanoseconds for a stage (owner only).
func (b *Buf) StageNs(s Stage) int64 {
	if b == nil || s >= NumStages {
		return 0
	}
	return b.stageNs[s]
}

// StageHits returns the accumulated hits for a stage (owner only).
func (b *Buf) StageHits(s Stage) int64 {
	if b == nil || s >= NumStages {
		return 0
	}
	return b.stageCnt[s]
}

// Flush hands completed, unflushed spans to the tracer under its mutex.
// The owner calls it at batch boundaries and before quiescing; End also
// triggers it every flushEvery completions. Attributes must be attached
// before the span is flushed.
func (b *Buf) Flush() {
	if b == nil || b.pending == 0 {
		return
	}
	b.t.mu.Lock()
	for i := range b.recs {
		r := &b.recs[i]
		if r.end != 0 && !r.flushed {
			b.t.flushed = append(b.t.flushed, flushedRec{record: *r, buf: b.id, idx: i})
			r.flushed = true
			// Drop the heavy fields; the slot stays to keep IDs stable.
			r.name = ""
			r.attrs = [maxAttrs]Attr{}
		}
	}
	b.t.mu.Unlock()
	b.pending = 0
}

// StageMetric is one stage's aggregate in a Summary.
type StageMetric struct {
	Count int64 `json:"count"`
	Ns    int64 `json:"ns"`
}

// Summary is the per-stage rollup of a tracer: stage accumulators
// summed across buffers plus span bookkeeping. It is what survives into
// the daemon's verdict metrics block and the session history when the
// full timeline is not kept.
type Summary struct {
	// Stages maps stage name → aggregate, omitting untouched stages.
	Stages map[string]StageMetric `json:"stages,omitempty"`
	// Spans counts completed span records.
	Spans int64 `json:"spans"`
	// Dropped counts spans lost to the per-buffer arena cap.
	Dropped int64 `json:"dropped,omitempty"`
}

// StageNs returns the summary's nanoseconds for the named stage.
func (s *Summary) StageNs(st Stage) int64 {
	if s == nil {
		return 0
	}
	return s.Stages[st.String()].Ns
}

// Summary aggregates the tracer's stage accumulators and span counts.
// Call it only after the buffer-owning goroutines have quiesced (the
// accumulators are owner-private and unsynchronized); a nil tracer
// returns nil.
func (t *Tracer) Summary() *Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := &Summary{Stages: map[string]StageMetric{}}
	sum.Spans = int64(len(t.flushed))
	for _, b := range t.bufs {
		for s := Stage(0); s < NumStages; s++ {
			if b.stageCnt[s] == 0 {
				continue
			}
			m := sum.Stages[s.String()]
			m.Count += b.stageCnt[s]
			m.Ns += b.stageNs[s]
			sum.Stages[s.String()] = m
		}
		sum.Dropped += b.dropped
		for i := range b.recs {
			if b.recs[i].end != 0 && !b.recs[i].flushed {
				sum.Spans++
			}
		}
	}
	if len(sum.Stages) == 0 {
		sum.Stages = nil
	}
	return sum
}

// EmitStages materializes b's stage accumulators in [stages] as
// synthesized child spans of parent, laid end-to-end from the start
// timestamp and clamped to limit (the parent's end) so the timeline
// stays properly nested. prev, when non-nil, holds the accumulator
// values at the previous call so only the delta is emitted; it is
// updated in place. Returns the timestamp where the last child ended.
func (b *Buf) EmitStages(parent SpanID, start, limit int64, prev *[NumStages]int64, stages ...Stage) int64 {
	if b == nil {
		return start
	}
	at := start
	for _, s := range stages {
		ns := b.stageNs[s]
		if prev != nil {
			ns -= prev[s]
			prev[s] = b.stageNs[s]
		}
		if ns <= 0 {
			continue
		}
		end := at + ns
		if limit > 0 && end > limit {
			end = limit
		}
		if end <= at {
			continue
		}
		b.Emit(s.String(), parent, at, end)
		at = end
	}
	return at
}
