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
// Concurrency model: a Buf is owned by exactly one goroutine — a daemon
// session's is its own goroutine — so recording a span is an append to a
// private arena of 48-byte records with no atomics and no locks, and a
// warning's mark reads no clock. The tracer's mutex is taken only to add
// a buffer, and at summary, export and release, which come after the
// owning goroutines have quiesced; released arenas serve the next tracer.
// Stage accounting that would be too hot for one span per event (the
// filter and graph stages see every operation) goes through AddStage and
// AddStageN, plain adds into a per-Buf accumulator, and is materialized
// as synthesized summary spans by the drivers.
//
// What a stage total means depends on who books it. Stages that run once
// per batch, session or warning (header, decode, forensics, verdict) are
// timed every time and their totals are exact. The filter and graph
// stages run once per operation — a step is ~10-20 ns, a clock reading
// ~30-65 — so the engines account for a sample of their operations
// (every one of a checker's first 64, then one at a pseudo-random offset
// in each 64-operation stride; see internal/core), count each to its
// stage for the operations it stands for, and time the first 16 picks and
// one in sixteen after them, subtracting ClockPairNs from each reading.
// The hit counts are within one stride of the operations seen; the
// nanoseconds are estimates with sampling error. Tracing a daemon session
// costs about half a nanosecond per operation, 2-6 per cent of its time.
package span

import (
	"math"
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

// maxAttrs is the attribute capacity per span. Excess attributes are
// dropped silently — spans are diagnostics, not a database.
const maxAttrs = 4

// record is one span in a Buf's arena, 48 bytes: its attributes live
// beside it (arena.attrs), so the common span, which has none or one,
// carries no empty slots. end == 0 means still open.
type record struct {
	name       string
	parent     SpanID
	start, end int64
	nattrs     uint8
}

// attr is one key/value pair on a span, a string or an integer.
type attr struct {
	span  int32 // the span's arena index
	isInt bool
	key   string
	str   string
	n     int64
}

// value is what the export writes for a.
func (a *attr) value() any {
	if a.isInt {
		return a.n
	}
	return a.str
}

// Args supplies a mark's attributes. It is asked only if the timeline is
// exported, so what it names costs nothing to attach.
type Args interface {
	SpanArgs(add func(key string, val any))
}

// mark is a zero-length span recorded without a clock reading (Mark).
type mark struct {
	name string
	at   int64 // unstamped until the buffer's next Stamp or Flush
	args Args
}

// unstamped is a mark's time before Stamp or Flush.
const unstamped = math.MinInt64

// maxSpans bounds one Buf's spans and marks together. Past the cap Start
// returns 0 and the drop is counted; a runaway producer degrades to losing
// spans, never to unbounded memory: at 40-48 bytes an entry, a full arena
// is about 3 MiB.
const maxSpans = 1 << 16

// arena is a Buf's storage: its span records, in the order they were
// opened, their attributes, and its marks. Release recycles it through
// arenas.
type arena struct {
	recs  []record
	attrs []attr
	marks []mark
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// Tracer collects spans from its Bufs, anchored to one monotonic epoch.
// A nil *Tracer is valid and inert.
type Tracer struct {
	epoch int64 // the Nanotime reading span timestamps count from

	mu   sync.Mutex
	bufs []*Buf
}

// New returns a Tracer whose clock starts now.
func New() *Tracer { return &Tracer{epoch: Nanotime()} }

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
	return Nanotime() - t.epoch
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
	b := &Buf{t: t, id: int32(len(t.bufs)), name: name, arena: arenas.Get().(*arena)}
	t.bufs = append(t.bufs, b)
	return b
}

// Release hands the tracer's arenas back for later tracers to reuse, once
// its summary and export have been taken, so that a daemon tracing every
// session does not grow a fresh arena for each. Neither the tracer nor
// its buffers may be used afterwards.
func (t *Tracer) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		a := b.arena
		b.arena = nil
		clear(a.recs) // drop the strings and what the marks' Args point at
		clear(a.attrs)
		clear(a.marks)
		a.recs, a.attrs, a.marks = a.recs[:0], a.attrs[:0], a.marks[:0]
		arenas.Put(a)
	}
	t.bufs = nil
}

// Buf is a single-owner span buffer: all methods must be called from
// the owning goroutine. A nil *Buf is valid and inert, so call sites
// need no enablement branches beyond what the method itself performs.
type Buf struct {
	t    *Tracer
	id   int32
	name string

	*arena
	done     int64 // completed spans
	pending  int   // marks not yet stamped
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
	id := b.emit(name, parent, start, max(start, end))
	if id != 0 {
		b.done++
	}
	return id
}

// Mark records a zero-length root span — a warning on the timeline —
// with the attributes args names, without reading the clock: it takes the
// time of the buffer's next Stamp or Flush, so an owner that reads the
// clock anyway (the engines, at their timed picks and at the end of a
// batch) places it for free, at most that far from where it happened.
func (b *Buf) Mark(name string, args Args) {
	if b == nil {
		return
	}
	if len(b.recs)+len(b.marks) >= maxSpans {
		b.dropped++
		return
	}
	if cap(b.marks) == 0 {
		b.marks = make([]mark, 0, 256) // warnings come in hundreds when they come
	}
	b.marks = append(b.marks, mark{name: name, at: unstamped, args: args})
	b.pending++
}

// Stamp gives the marks recorded since the last Stamp the time at, a
// Nanotime reading taken after them.
func (b *Buf) Stamp(at int64) {
	if b != nil && b.pending > 0 {
		b.stamp(at)
	}
}

func (b *Buf) stamp(at int64) {
	for i := len(b.marks) - b.pending; i < len(b.marks); i++ {
		b.marks[i].at = at - b.t.epoch
	}
	b.pending = 0
}

func (b *Buf) emit(name string, parent SpanID, start, end int64) SpanID {
	if len(b.recs)+len(b.marks) >= maxSpans {
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
	b.done++
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

// attach adds a to the span id names, while it has room.
func (b *Buf) attach(id SpanID, a attr) {
	if r := b.rec(id); r != nil && r.nattrs < maxAttrs {
		r.nattrs++
		_, idx := id.split()
		a.span = int32(idx)
		b.attrs = append(b.attrs, a)
	}
}

// AttrStr attaches a string attribute to a span of this buffer.
func (b *Buf) AttrStr(id SpanID, key, val string) { b.attach(id, attr{key: key, str: val}) }

// AttrInt attaches an integer attribute to a span of this buffer.
func (b *Buf) AttrInt(id SpanID, key string, val int64) {
	b.attach(id, attr{key: key, n: val, isInt: true})
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

// Flush settles the buffer up to now: marks still waiting for a time get
// the current one. It reads the clock only when there are such marks. The
// engines call it at the end of every batch; an export gives a mark still
// waiting the export's time.
func (b *Buf) Flush() {
	if b != nil && b.pending > 0 {
		b.stamp(Nanotime())
	}
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
		sum.Spans += b.done + int64(len(b.marks))
		sum.Dropped += b.dropped
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
