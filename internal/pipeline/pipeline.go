// Package pipeline is the staged source of the check driver
// (core.Check): it feeds the driver from goroutines running ahead of it
// over a bounded ring of recycled batches,
//
//	decode ──batches──▶ shard workers (N ≥ 0) ──marks──▶ core.Check (caller)
//
// The decode stage keeps the existing zero-alloc decoder and hands off
// batches of operations. With no workers that is all there is: the
// driver steps batch k while batch k+1 is being decoded. Otherwise every
// batch is broadcast to N shard workers; worker w owns the variables x with hash(x) == w and
// scans the batch for accesses it can prove the engine's own Section 5
// filter would discard, writing an anchor mark into the batch's mark
// array (workers touch disjoint entries, so no locks). Because every
// worker sees every event in trace order, synchronization and
// transaction-boundary events (acquire/release/fork/join/begin/end) act
// as ordered barriers inside each worker's scan: any such event on a
// thread resets that thread's adjacency, exactly as it would invalidate
// the serial filter's cached state. Marked survivors and everything
// else are then re-sequenced — batches reach the driver in original
// trace order — and consumed on the single engine goroutine (the
// caller's), where the driver skips marked operations via
// Checker.SkipFiltered and steps the rest. The engine stage stays
// serialized because the
// happens-before graph and the clock engines are inherently sequential;
// the parallel win is that <15% of a loop-regime trace ever reaches it.
//
// # The marking contract
//
// A worker marks an access op = (kind, t, x) at trace index i only when
// all of the following hold, computed from its own in-order scan:
//
//  1. x is a dense variable (x < core.PrefilterVarLimit) owned by this
//     worker;
//  2. thread t is inside a checked (non-ignored) atomic block — the
//     worker replicates the per-thread begin/end depth bookkeeping,
//     including the atomicity specification's exemptions;
//  3. the previous event of thread t and the previous access of
//     variable x are the same event, with the same kind and thread
//     (strict adjacency): between them nothing touched t (no operation
//     of t, no fork/join involving t) and nothing touched x.
//
// Chains collapse: a run rd(t,x) rd(t,x) rd(t,x)… marks every repeat
// and anchors all of them at the first (unmarked) access.
//
// A mark alone is not a licence to skip: adjacency says nothing about
// the graph, and a processed anchor can leave the filter unsatisfied
// forever (its ⊕-refreshed edges carry newer tails than the stored
// predecessor steps, so the edge-presence test keeps failing on every
// repeat). The driver therefore adds the one graph-side fact only the
// engine stage can know: it records, per dense variable, the index of the last
// access it fully Stepped and whether that Step was a filter hit, and
// honors a mark only when that recorded index is at or past the mark's
// anchor and the recorded Step was filtered. The anchor certifies that
// every access of x from the anchor to the marked repeat is one
// strictly-adjacent same-kind same-thread run, so an engine-Stepped
// access at or past the anchor is a member of that run — and if the
// engine's own filter discarded it, the skip is provably what serial
// does: the filter's inputs — L(t), W(x), the R(x) row version, the
// cached decision words — change only on events of t or accesses of x,
// and the contract rules both out inside the run, so the decision cache
// stored at that access still matches bit-for-bit and the serial engine
// would discard the repeat through its own fast path. A run whose first
// accesses the engine processes in full simply re-anchors at its first
// filter hit and skips from there. Any other mark — last Step
// unfiltered, warned, or predating the anchor — falls back to a full
// Step, which re-runs the serial filter against identical state.
// Steps and skips both run on the caller's goroutine against an
// unmodified checker, so verdicts, warning positions, blame, filter
// counts and the engine's observable state are bit-identical to the
// serial path at every worker count — the differential and fuzz tests
// in this package enforce exactly that.
//
// # Cancellation
//
// Every channel operation of the producer and the workers also selects
// on a stop channel that Source.Close closes. The consumer defers Close,
// so one that panics or returns early strands no goroutine; on the
// normal path Next itself waits for the stages when it delivers the
// final batch, so they have exited once the driver returns.
package pipeline

import (
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// DefaultBatch is the number of operations per pipeline batch when
// Config.Batch is zero.
const DefaultBatch = 4096

// Config tunes the pipeline. The zero value decodes ahead of the engine
// with no shard workers.
type Config struct {
	// Workers is the shard-worker count. 0 or 1 (or an engine without
	// prefilter support, or Options.NoFilter/Forensics) runs none: the
	// batches reach the driver unmarked.
	Workers int
	// Batch is the operations-per-batch granularity (DefaultBatch if 0).
	Batch int
	// Observer is handed to the driver (see core.Observer).
	Observer *core.Observer
	// Stats, when non-nil, is filled after the run with pipeline-side
	// accounting: operations consumed and how many of them the driver
	// skipped on an honored worker mark.
	Stats *Stats
}

// Stats is the pipeline's own accounting (engine verdict accounting
// lives in core.Result). Skipped counts operations consumed through
// Checker.SkipFiltered on an honored mark — the share of the trace the
// engine never ran its own filter on.
type Stats struct {
	Ops     int64
	Skipped int64
}

// CheckStream checks operations pulled from a streaming decoder through
// the staged source, with core.CheckStream's results exactly.
func CheckStream(d *trace.Decoder, opts core.Options, cfg Config) (*core.Result, int, error) {
	return check(newSource(d, nil, opts, cfg), opts, cfg)
}

// CheckTrace checks a materialized trace through the staged source. The
// result is bit-identical to core.CheckTrace at every worker count.
func CheckTrace(tr trace.Trace, opts core.Options, cfg Config) *core.Result {
	res, _, _ := check(newSource(nil, tr, opts, cfg), opts, cfg)
	if res == nil {
		res = core.CheckTrace(nil, opts) // empty trace: empty result, like core.CheckTrace
	}
	return res
}

func check(s *Source, opts core.Options, cfg Config) (*core.Result, int, error) {
	defer s.Close()
	res, n, err := core.Check(s.Next, opts, cfg.Observer)
	if cfg.Stats != nil {
		*cfg.Stats = Stats{Ops: int64(n)}
		if res != nil {
			cfg.Stats.Skipped = res.Skipped
		}
	}
	return res, n, err
}

// batch is one ring slot: a run of operations, the workers' mark array
// (anchor trace index per op, -1 unmarked), and the barrier the consumer
// waits on. Ownership cycles producer → workers+consumer → producer
// along the channels; the marked group hands the marks to the consumer
// only after every worker finished the batch.
type batch struct {
	ops    []trace.Op
	marks  []int64
	base   int64 // trace index of ops[0]
	err    error // what ended the stream right after these ops (final batch only)
	marked sync.WaitGroup
}

// Source is a core.Source (its Next method) fed by a producer goroutine
// and Config.Workers shard workers. The consumer must call Close — at
// any point, typically deferred — and must not call Next again once it
// has returned an error.
type Source struct {
	dec    *trace.Decoder // the input is dec, or tr when dec is nil
	tr     trace.Trace
	labels *trace.Labels // the table the input's label ids index

	workers int
	out     chan *batch // marked batches, in trace order
	free    chan *batch // recycled batches
	stop    chan struct{}
	stages  sync.WaitGroup
	lent    *batch // the batch the consumer holds until its next call
}

// newSource starts the stages over d, or over tr when d is nil. opts
// decides whether the configuration can be marked at all and supplies the
// atomicity specification the workers replicate.
func newSource(d *trace.Decoder, tr trace.Trace, opts core.Options, cfg Config) *Source {
	s := &Source{dec: d, tr: tr, labels: trace.ProcessLabels()}
	if d != nil {
		s.labels = d.Labels()
	}
	// The mark stage applies only when the run does not need every
	// operation to reach the engine.
	if cfg.Workers > 1 && !opts.NoFilter && !opts.Forensics {
		s.workers = cfg.Workers
	}
	bsize := cfg.Batch
	if bsize <= 0 {
		bsize = DefaultBatch
	}
	ring := s.workers + 4 // batches in flight: decode ahead without unbounded memory
	s.free = make(chan *batch, ring)
	s.out = make(chan *batch, ring)
	s.stop = make(chan struct{})
	ins := make([]chan *batch, s.workers)
	for w := range ins {
		ins[w] = make(chan *batch, ring)
		s.stages.Add(1)
		go s.shard(w, ins[w], opts.Ignore)
	}
	s.stages.Add(1)
	go s.produce(ins, bsize, ring)
	return s
}

// fill reads the next operations of the input into buf.
func (s *Source) fill(buf []trace.Op) (int, error) {
	if s.dec != nil {
		return core.DecodeBatch(s.dec, buf, nil)
	}
	n := copy(buf, s.tr)
	s.tr = s.tr[n:]
	if len(s.tr) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// produce fills recycled batches, broadcasts each to every worker, and
// queues it for the consumer in trace order, until the input ends.
func (s *Source) produce(ins []chan *batch, bsize, ring int) {
	defer s.stages.Done()
	defer func() {
		for _, in := range ins {
			close(in)
		}
	}()
	allocated := 0
	var base int64
	for {
		// Reuse a recycled batch when one is back, grow the ring while
		// it is below its bound, otherwise wait for the consumer.
		var b *batch
		select {
		case b = <-s.free:
		default:
		}
		if b == nil && allocated < ring {
			b = &batch{ops: make([]trace.Op, bsize)}
			if s.workers > 0 {
				b.marks = make([]int64, bsize)
			}
			allocated++
		}
		if b == nil {
			select {
			case b = <-s.free:
			case <-s.stop:
				return
			}
		}
		n, err := s.fill(b.ops[:bsize])
		b.ops = b.ops[:n]
		b.base = base
		base += int64(n)
		b.err = err
		if s.workers > 0 {
			b.marks = b.marks[:n]
			for i := range b.marks {
				b.marks[i] = -1
			}
			b.marked.Add(s.workers)
			for _, in := range ins {
				select {
				case in <- b:
				case <-s.stop:
					return
				}
			}
		}
		select {
		case s.out <- b:
		case <-s.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// shard is worker w: it scans every batch in trace order and marks the
// variables it owns.
func (s *Source) shard(w int, in <-chan *batch, ignore map[trace.Label]bool) {
	defer s.stages.Done()
	sh := newShard(w, s.workers, ignore, s.labels)
	for {
		var b *batch
		select {
		case b = <-in:
		case <-s.stop:
			return
		}
		if b == nil {
			return // the producer closed in: the input ended
		}
		sh.scan(b)
		b.marked.Done()
	}
}

// Next implements core.Source. The batch delivered with the error that
// ends the stream is the last the stages produce, and Next waits for
// them to exit before handing it over.
func (s *Source) Next() (core.Batch, error) {
	if s.lent != nil {
		s.free <- s.lent // cap == every batch ever allocated: never blocks
	}
	b := <-s.out
	s.lent = b
	b.marked.Wait()
	if b.err != nil {
		s.stages.Wait()
	}
	return core.Batch{Ops: b.ops, Marks: b.marks, Labels: s.labels}, b.err
}

// Close cancels the stages without waiting for them: a producer blocked
// reading its transport exits once that read returns.
func (s *Source) Close() { close(s.stop) }
