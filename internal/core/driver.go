package core

import (
	"errors"
	"io"
	"time"

	"repro/internal/span"
	"repro/internal/trace"
)

// This file is the one check driver: every consumer of a Checker — the
// in-memory and streaming entry points here, internal/pipeline's staged
// source, the daemon's sessions — runs the same loop,
//
//	Source ──batches (optionally pre-marked)──▶ Checker ──▶ Observer
//
// on the caller's goroutine. What varies is only where batches come
// from: a slice, a decoder read synchronously, or a decode-ahead ring
// with shard markers in front of it.

// ErrEmptyStream reports a stream that reached EOF before yielding a
// single operation. An empty stream is indistinguishable from a
// producer that crashed before emitting (or a misdirected pipe), so it
// is a malformed-input outcome, never a "serializable" verdict: an
// instrumented program always emits at least one operation, and a
// vacuous exit-0 here is exactly the silent-success hole that lets a
// broken pipeline masquerade as a clean run.
var ErrEmptyStream = errors.New("core: empty trace: stream ended before the first operation")

// Batch is a run of consecutive trace operations handed to the driver.
type Batch struct {
	Ops []trace.Op
	// Labels is the table Ops' Begin label ids index: the decoder's for
	// a stream. Nil means the process-wide table (trace.Beg, rr, the
	// one-shot readers).
	Labels *trace.Labels
	// Marks, when non-nil, carries one prefilter mark per operation: the
	// trace index of the run anchor a shard worker certified, or -1 (see
	// internal/pipeline for the marking contract). Nil means unmarked.
	Marks []int64
}

// Source yields a trace's batches in order. The batch is valid until
// the next call. A non-nil error ends the stream after the operations
// returned with it: io.EOF cleanly, anything else as a decode error.
type Source func() (Batch, error)

// Observer watches a check while it runs. Every hook is optional and is
// called on the driver's goroutine, in trace order.
type Observer struct {
	// Checker receives the engine right after construction, before any
	// operation, so a caller can publish live stats from it.
	Checker func(Checker)
	// Batch runs after each non-empty batch with the number of
	// operations consumed and how many of them were skipped on an
	// honoured mark. The batch's warnings are the ones the checker's
	// Warnings gained.
	Batch func(ops, skipped int)
}

// Check runs a fresh Checker over src. It returns the result, the
// number of operations consumed, and the first decode error (nil on
// clean EOF). Operations consumed before a decode error are still
// reflected in the result. A stream that ends before the first operation
// returns a nil result alongside ErrEmptyStream: zero ops is a malformed
// input, not a vacuously serializable trace, and handing back a partial
// Result there invited callers to read Serializable=true off an error
// path.
func Check(src Source, opts Options, obs *Observer) (*Result, int, error) {
	res, n, err := drive(src, opts, obs)
	if err == nil && n == 0 {
		return nil, 0, ErrEmptyStream
	}
	return res, n, err
}

// CheckTrace runs a fresh Checker over the whole trace.
func CheckTrace(tr trace.Trace, opts Options) *Result {
	res, _, _ := drive(func() (Batch, error) { return Batch{Ops: tr}, io.EOF }, opts, nil)
	return res
}

// syncBatch is the synchronous decoder source's batch size: small
// enough that the buffer costs a short trace nothing to allocate and
// stays cache-resident between the decode and step passes, large enough
// to amortize the per-batch bookkeeping.
const syncBatch = 512

// CheckStream runs a fresh Checker over operations pulled from a
// streaming decoder on the caller's goroutine, without materializing the
// trace. This is the entry point for instrumented-program pipelines
// (veloinstr -run) and for checking traces too large to hold in memory;
// unlike CheckTrace it cannot be cross-checked against the offline
// oracle, which needs the full trace. Results are as for Check.
func CheckStream(d *trace.Decoder, opts Options) (*Result, int, error) {
	return Check(StreamSource(d, make([]trace.Op, syncBatch), opts.Spans), opts, nil)
}

// StreamSource is the synchronous decoder source: every call decodes the
// next batch of up to len(buf) operations from d on the caller's
// goroutine, into buf, and books the time to sp's decode stage.
func StreamSource(d *trace.Decoder, buf []trace.Op, sp *span.Buf) Source {
	return func() (Batch, error) {
		n, err := DecodeBatch(d, buf, sp)
		return Batch{Ops: buf[:n], Labels: d.Labels()}, err
	}
}

// DecodeBatch is Decoder.NextBatch with the time booked to sp's decode
// stage: one clock pair per batch, outside the decoder so its
// zero-allocation steady state is untouched. A nil sp reads no clock.
func DecodeBatch(d *trace.Decoder, buf []trace.Op, sp *span.Buf) (int, error) {
	if sp == nil {
		return d.NextBatch(buf)
	}
	t0 := time.Now()
	n, err := d.NextBatch(buf)
	sp.AddStage(span.StageDecode, int64(time.Since(t0)))
	return n, err
}

// anchorRec is the driver's per-variable run anchor: the trace index of
// the last fully-Stepped access of the variable and whether that Step
// was discarded by the engine's own filter.
type anchorRec struct {
	idx      int
	filtered bool
}

// drive is the loop itself. The result is never nil.
func drive(src Source, opts Options, obs *Observer) (*Result, int, error) {
	if obs == nil {
		obs = &Observer{}
	}
	c := New(opts)
	if obs.Checker != nil {
		obs.Checker(c)
	}
	// anchors[x] records, per dense variable, the trace index of the
	// last access of x the engine fully Stepped and whether that Step
	// was a filter hit. A worker mark with anchor a certifies that every
	// access of x in (a, here] — and a itself — belongs to one strictly
	// adjacent same-kind same-thread run; the recorded access therefore
	// lies inside the run whenever its index is ≥ a, and if the engine's
	// own filter discarded it, nothing the filter consults has changed
	// since, so this repeat is a guaranteed serial filter hit (see the
	// internal/pipeline package comment). A run whose first accesses are
	// processed re-anchors at its first filter hit and skips from there
	// on; skips themselves leave the record untouched, so chains keep
	// skipping. Any other mark falls back to a full Step, which re-runs
	// the serial filter against identical state.
	var anchors []anchorRec
	filtered := c.(interface{ filterCount() *int64 }).filterCount()
	labelled := c.(interface{ useLabels(*trace.Labels) })
	n, skipped := 0, 0
	for {
		b, err := src()
		if b.Labels != nil {
			labelled.useLabels(b.Labels)
		}
		skip := 0
		if b.Marks != nil {
			for i, op := range b.Ops {
				if a := b.Marks[i]; a >= 0 && int(op.Target) < len(anchors) {
					if r := anchors[op.Target]; int64(r.idx) >= a && r.filtered && c.SkipFiltered(op) {
						skip++
						continue
					}
				}
				before := *filtered
				c.Step(op)
				if (op.Kind == trace.Read || op.Kind == trace.Write) &&
					op.Target >= 0 && op.Target < PrefilterVarLimit {
					for int(op.Target) >= len(anchors) {
						anchors = append(anchors, anchorRec{idx: -1})
					}
					anchors[op.Target] = anchorRec{idx: n + i, filtered: *filtered > before}
				}
			}
		} else {
			c.StepBatch(b.Ops)
		}
		n += len(b.Ops)
		skipped += skip
		if obs.Batch != nil && len(b.Ops) > 0 {
			obs.Batch(len(b.Ops), skip)
		}
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return &Result{
				Serializable: len(c.Warnings()) == 0,
				Warnings:     c.Warnings(),
				Snapshot:     c.Snapshot(),
				Skipped:      int64(skipped),
			}, n, err
		}
	}
}
