// Package core implements the Velodrome dynamic atomicity analysis
// (Flanagan, Freund, Yi — PLDI 2008): a sound and complete online checker
// for conflict-serializability of observed traces.
//
// Three engines are registered (registry.go). The Basic engine is the
// initial analysis of Figure 2 (one graph node per transaction,
// non-transactional operations wrapped in unary transactions via [INS
// OUTSIDE]). The Optimized engine is the refined analysis of Figure 4:
// steps with per-operation timestamps, nested atomic blocks,
// reference-counting garbage collection, node merging for
// non-transactional operations, and blame assignment via increasing
// cycles. The Aero engine checks with vector clocks and no graph, and
// stops at the first violation. Every engine reports a warning if and
// only if the observed trace is not conflict-serializable.
package core

import (
	"fmt"
	"strings"

	"repro/internal/forensic"
	"repro/internal/graph"
	"repro/internal/span"
	"repro/internal/trace"
)

// Engine selects the analysis variant.
type Engine int

// Engine variants.
const (
	// Optimized is the production analysis of Figure 4.
	Optimized Engine = iota
	// Basic is the initial analysis of Figure 2, kept for differential
	// testing and for the "Without Merge" columns of Table 1.
	Basic
	// Aero is the AeroDrome engine (Mathur & Viswanathan): single-pass
	// vector-clock checking with no happens-before graph. Linear-regime
	// fast, but inherently first-violation: it stops at the first
	// warning regardless of FirstOnly, and supports no forensics (see
	// EngineInfo's capability flags).
	Aero
)

// Options configure a Checker. The zero value is the paper's production
// configuration: the optimized engine with merging and garbage collection.
type Options struct {
	Engine Engine
	// NoMerge disables the merge optimization of Section 4.2; every
	// non-transactional operation allocates its own unary node (the
	// "Without Merge" configuration of Table 1).
	NoMerge bool
	// NoGC disables reference-counting garbage collection (Section 4.1).
	// Only for differential testing; large traces exhaust the node pool.
	NoGC bool
	// NoFilter disables the FilterRedundant fast path (on by default):
	// before touching the graph, an access is compared against the stored
	// W(x)/R(x,t) steps, and one that provably cannot add a happens-before
	// edge — nor shift any later cycle or blame verdict — is discarded
	// after a few integer comparisons, skipping merge, edge insertion and
	// cycle detection (Section 5's dynamic redundant-event filtering; see
	// DESIGN.md for the redundancy argument). Disabling is only for
	// differential testing and for the filter-off benchmark columns.
	NoFilter bool
	// FirstOnly stops analysis after the first warning, leaving the
	// happens-before graph exactly as it was when the violation was found.
	FirstOnly bool
	// MaxWarnings bounds the number of recorded warnings (0 = 10000).
	MaxWarnings int
	// Forensics enables the warning-forensics layer (internal/forensic):
	// a bounded per-thread event flight recorder plus access-pair
	// provenance on every happens-before edge, so each warning carries a
	// provenance report (Warning.Forensics) naming the exact accesses
	// behind every cycle edge. Off by default: the default path stays
	// zero-overhead and verdicts are identical either way.
	Forensics bool
	// Spans, when non-nil, receives the checker's stage accounting (see
	// internal/span): the exact time of every forensics report, a marker
	// span per warning, and an estimate of the time in the redundancy
	// filter and in graph work from timing a sample of the operations
	// (sample.go; hit counts are within one stride of the operations
	// seen). It is the engines' only instrument: everything else an
	// observer sees is a Snapshot of their plain counters. The buffer
	// must be owned by the goroutine calling Step. Nil — the default —
	// keeps the hot path free of clock reads and of the sampling counter;
	// spans never read or write engine state, so verdicts, warning
	// positions and blame are bit-identical with tracing on or off.
	Spans *span.Buf
	// Ignore names atomic blocks exempted from checking (the paper's
	// atomicity specification, Section 5: the tool takes "a specification
	// of which methods in that program should be atomic"). An ignored
	// outermost block starts no transaction — its operations run as unary
	// transactions until a checked block opens — and an ignored nested
	// block is never refuted. Table 1's timing configuration is exactly
	// this: methods already found non-atomic are exempted, leaving "many
	// small transactions rather than a few monolithic ones".
	Ignore map[trace.Label]bool
}

// TxnMeta is the metadata attached to every transaction node, used in
// error messages and dot graphs.
type TxnMeta struct {
	Thread trace.Tid
	Label  trace.Label // outermost atomic block label; empty for unary
	Start  int         // trace index of the transaction's first operation
	// End is the trace index of the transaction's final end marker, or -1
	// while the transaction is open. It is maintained only under
	// Options.Forensics (and for single-operation unary transactions,
	// whose span is known at creation); it never affects verdicts.
	End   int
	Unary bool
}

// String renders the transaction for error messages.
func (m *TxnMeta) String() string {
	if m == nil {
		return "?"
	}
	if m.Unary {
		return fmt.Sprintf("unary@%d(t%d)", m.Start, m.Thread)
	}
	if m.Label == "" {
		return fmt.Sprintf("txn@%d(t%d)", m.Start, m.Thread)
	}
	return fmt.Sprintf("%s@%d(t%d)", m.Label, m.Start, m.Thread)
}

// Warning reports one observed conflict-serializability violation: a cycle
// in the transactional happens-before graph.
type Warning struct {
	// OpIndex is the trace index of the operation that completed the cycle.
	OpIndex int
	// Op is that operation.
	Op trace.Op
	// Cycle is the offending happens-before cycle, starting at the
	// completing transaction.
	Cycle *graph.Cycle
	// Increasing reports whether the cycle was increasing, in which case
	// the completing transaction is provably not self-serializable.
	Increasing bool
	// Blamed is the transaction blamed for the violation (nil when blame
	// could not be assigned to a single transaction, Section 4.3).
	Blamed *TxnMeta
	// Refuted lists the labels of the atomic blocks of the blamed
	// transaction that contain both the root and target operations of the
	// cycle, outermost first. Only those blocks are non-serializable;
	// inner blocks that exclude the root operation are not refuted.
	Refuted []trace.Label

	// labels is the table Op's and the cycle's label ids index.
	labels *trace.Labels
	// report is the provenance report assembled at warning time under
	// Options.Forensics (nil otherwise). It must be built eagerly: the
	// flight-recorder windows advance as checking continues.
	report *forensic.Report
}

// Forensics returns the warning's provenance report, or nil when the
// checker ran without Options.Forensics.
func (w *Warning) Forensics() *forensic.Report { return w.report }

// Method returns the outermost refuted atomic block label, or the blamed
// transaction's label, or "" if blame was not assigned.
func (w *Warning) Method() trace.Label {
	if len(w.Refuted) > 0 {
		return w.Refuted[0]
	}
	if w.Blamed != nil {
		return w.Blamed.Label
	}
	return ""
}

// Format renders an operation of the warning's trace — its Op, a cycle
// edge's — naming a Begin's label through the table of the source the
// checker read it from.
func (w *Warning) Format(op trace.Op) string { return op.Format(w.labels) }

// String renders a one-line summary followed by the cycle.
func (w *Warning) String() string {
	var b strings.Builder
	if w.Blamed != nil {
		fmt.Fprintf(&b, "warning: %s is not atomic (op %d: %s)", w.Blamed, w.OpIndex, w.Format(w.Op))
	} else {
		fmt.Fprintf(&b, "warning: non-serializable trace, blame unassigned (op %d: %s)", w.OpIndex, w.Format(w.Op))
	}
	for _, e := range w.CycleEdges() {
		from, _ := e.FromData.(*TxnMeta)
		to, _ := e.ToData.(*TxnMeta)
		fmt.Fprintf(&b, "\n  %s ⇒ %s via %s", from, to, w.Format(e.Op))
	}
	return b.String()
}

// CycleEdges returns the cycle's edges, the closing one last, or nil: the
// Aero engine reports a position and no cycle structure, so every reader
// of a warning's cycle goes through here.
func (w *Warning) CycleEdges() []graph.CycleEdge {
	if w.Cycle == nil {
		return nil
	}
	return w.Cycle.Edges
}

// Checker is an online conflict-serializability analysis: feed it the
// operations of a trace one at a time via Step.
type Checker interface {
	// Step processes one operation and returns a warning if the operation
	// completed a happens-before cycle (nil otherwise). The cycle-closing
	// edge is discarded so the graph stays acyclic and checking continues.
	Step(op trace.Op) *Warning
	// StepBatch processes ops in order, as Step would one at a time. It is
	// what a driver calls: an engine's own loop over the batch, with no
	// call per operation across this interface. The batch's warnings are
	// the ones Warnings gained.
	StepBatch(ops []trace.Op)
	// Warnings returns all warnings reported so far.
	Warnings() []*Warning
	// Snapshot returns the engine's counters as of the last Step.
	Snapshot() Snapshot
	// SkipFiltered consumes op as a filter hit decided by an external
	// prefilter (internal/pipeline's sharded mark stage) and returns
	// true, leaving the engine in exactly the state Step would have left
	// it had its own Section 5 filter fired — or returns false without
	// touching any state, in which case the caller must fall back to
	// Step. It returns false whenever the engine cannot prove the skip
	// is state-identical (checking already done, filtering disabled).
	// Callers must only offer operations the prefilter proved redundant;
	// see internal/pipeline for the marking contract.
	SkipFiltered(op trace.Op) bool
}

// New returns a Checker configured by opts.
func New(opts Options) Checker {
	if opts.MaxWarnings == 0 {
		opts.MaxWarnings = 10000
	}
	g := graph.New()
	g.SetGC(!opts.NoGC)
	g.SetMemo(!opts.NoFilter)
	var rec *forensic.Recorder
	if opts.Forensics && InfoFor(opts.Engine).SupportsForensics {
		rec = forensic.NewRecorder(forensic.DefaultWindow)
	}
	cm := common{g: g, opts: opts, rec: rec, sampler: sampler{rng: sampleSeed}}
	cm.useLabels(trace.ProcessLabels())
	switch opts.Engine {
	case Basic:
		c := &basicChecker{common: cm, cur: map[trace.Tid]graph.Step{}, l: map[trace.Tid]graph.Step{},
			u: map[trace.Lock]graph.Step{}, r: map[trace.Var]map[trace.Tid]graph.Step{},
			w: map[trace.Var]graph.Step{}, curMeta: map[trace.Tid]*TxnMeta{}}
		c.eng = c
		return c
	case Aero:
		c := &aeroChecker{common: cm} // ⊥ is nil, the zero value
		c.eng = c
		return c
	}
	c := &optChecker{common: cm, tables: newTables(graph.None)}
	c.eng = c
	return c
}

// Snapshot is an engine's plain counters at one moment: what every
// observer — a metrics registry (Publisher), the daemon's /debug/velo
// and session records, a Result — is a view of. Taking one reads no
// clock and is meant for batch boundaries, not for every operation.
type Snapshot struct {
	// Stats is the happens-before graph's accounting (all zero for the
	// Aero engine, which builds no graph).
	Stats graph.Stats
	// Filtered counts operations discarded by the redundant-event fast
	// path (Section 5; always 0 under Options.NoFilter).
	// Stats.FilteredEdges separately counts edge re-insertions served by
	// the graph's last-edge memo.
	Filtered int64
	// Warnings counts the cycles reported — every one, where
	// Checker.Warnings keeps at most Options.MaxWarnings — Increasing
	// those whose cycle was increasing, Blamed those with blame assigned
	// (Section 4.3), and Refuted the atomic-block labels refuted across
	// them.
	Warnings, Increasing, Blamed, Refuted int
	// AeroSubsPeak is the longest subscriber list any AeroDrome clock
	// object reached — the quantity the freeze cascade bounds on
	// join-dominated traces. Stays 0 on the graph engines.
	AeroSubsPeak int
}

// Result is the outcome of checking a complete trace.
type Result struct {
	Serializable bool
	// Warnings are the recorded warnings; it shadows the embedded
	// Snapshot's count of the same name, which MaxWarnings does not cap.
	Warnings []*Warning
	// Snapshot is the engine's final counters (Stats, Filtered, …).
	Snapshot
	// Skipped counts operations the driver consumed through
	// Checker.SkipFiltered on an honoured prefilter mark — the share of
	// the trace the engine never ran its own filter on. It is driver
	// accounting, not part of the verdict: always 0 without a marking
	// source, and every skipped operation is also counted in Filtered.
	Skipped int64
}

// common holds state shared by every engine.
type common struct {
	g    *graph.Graph
	opts Options
	rec  *forensic.Recorder // nil when Options.Forensics is off
	// labels is the table the ops' Begin label ids index, the one the
	// source handed over (the process-wide one until a source hands
	// another).
	labels *trace.Labels
	warns  []*Warning
	idx    int      // index of the operation being processed
	snap   Snapshot // all but Stats, which Snapshot reads off the graph
	done   bool

	// The engines' output, per transaction and per violation: chunks
	// never reallocated or reused, so what is handed out belongs to the
	// Result — a retained *Warning keeps its slab, and the TxnMeta slab it
	// blames into, alive.
	metas    graph.Chunks[TxnMeta]
	warnings graph.Chunks[Warning]
	refuted  graph.Chunks[trace.Label]

	eng   engine      // the engine this is part of
	one   [1]trace.Op // Step's batch
	first *Warning    // the first warning recorded since Step began

	sampler
}

// engine is what an engine adds to common: its one loop over a batch,
// and the store its own filter makes on a hit, which SkipFiltered
// replays.
type engine interface {
	run(ops []trace.Op)
	hitStore(op trace.Op)
}

// newMeta returns m as a transaction's metadata.
func (c *common) newMeta(m TxnMeta) *TxnMeta {
	p := &c.metas.Take(1)[0]
	*p = m
	return p
}

// newWarning starts the warning for op, the operation being processed.
func (c *common) newWarning(op trace.Op, cyc *graph.Cycle) *Warning {
	w := &c.warnings.Take(1)[0]
	*w = Warning{OpIndex: c.idx, Op: op, Cycle: cyc, labels: c.labels}
	return w
}

// useLabels makes t the table the checker names label ids through.
func (c *common) useLabels(t *trace.Labels) { c.labels = t }

// ignores reports whether the atomicity specification exempts the block
// a begin with label id opens.
func (c *common) ignores(id trace.LabelID) bool {
	return len(c.opts.Ignore) > 0 && c.opts.Ignore[c.labels.Name(id)]
}

// Warnings implements Checker.
func (c *common) Warnings() []*Warning { return c.warns }

// Snapshot implements Checker.
func (c *common) Snapshot() Snapshot {
	s := c.snap
	s.Stats = c.g.Stats()
	return s
}

// filterCount is the driver's view of the filter counter: on the marked
// path it reads it around every Step, where copying a Snapshot would
// cost as much as the step.
func (c *common) filterCount() *int64 { return &c.snap.Filtered }

// Step implements Checker: the batch of one.
func (c *common) Step(op trace.Op) *Warning {
	c.one[0], c.first = op, nil
	c.StepBatch(c.one[:])
	return c.first
}

// StepBatch implements Checker: the engine's loop over ops. With
// Options.Spans the batch is split at the operations the sampler picks,
// and a pick is a run of one, counted to its stage, and timed between
// startTimed and endTimed when it is one to time: it takes the path its
// neighbours take. The batch's last warnings take its end for their time.
func (c *common) StepBatch(ops []trace.Op) {
	if c.opts.Spans == nil {
		c.eng.run(ops)
		return
	}
	for len(ops) > 0 {
		k := c.unpicked(len(ops))
		c.eng.run(ops[:k])
		if k == len(ops) {
			break
		}
		if c.timed() {
			t := c.startTimed()
			c.eng.run(ops[k : k+1])
			c.endTimed(t)
		} else {
			filtered := c.snap.Filtered
			c.eng.run(ops[k : k+1])
			c.count(filtered)
		}
		ops = ops[k+1:]
	}
	c.opts.Spans.Flush()
}

// SkipFiltered implements Checker: it consumes op as a filter hit
// decided by the pipeline's sharded prefilter, replaying what the
// engine's own filter does on a hit — flight-recorder note, the engine's
// hitStore, filter accounting, index advance — so the engine state is
// bit-identical to a serial filter hit.
func (c *common) SkipFiltered(op trace.Op) bool {
	if c.done || c.opts.NoFilter {
		return false
	}
	var t timing
	picked := c.opts.Spans != nil && c.picked()
	timed := picked && c.timed()
	if timed {
		t = c.startTimed()
	}
	filtered := c.snap.Filtered
	c.noteOp(op)
	c.eng.hitStore(op)
	c.snap.Filtered++
	c.idx++
	switch {
	case timed:
		c.endTimed(t)
	case picked:
		c.count(filtered)
	}
	return true
}

// warningArgs are a warning's attributes on its timeline mark: its
// position, and its blamed transaction, named only if the timeline is
// exported.
type warningArgs Warning

func (w *warningArgs) SpanArgs(add func(string, any)) {
	add("op", int64(w.OpIndex))
	if w.Blamed != nil {
		add("blamed", w.Blamed.String())
	}
}

func (c *common) record(w *Warning) *Warning {
	if c.first == nil {
		c.first = w
	}
	if c.rec != nil {
		// Eager: the flight-recorder windows are only valid right now.
		if b := c.opts.Spans; b != nil {
			t0 := span.Nanotime()
			w.report = c.buildReport(w)
			b.AddStage(span.StageForensics, span.Nanotime()-t0)
		} else {
			w.report = c.buildReport(w)
		}
	}
	if b := c.opts.Spans; b != nil {
		// A zero-length marker makes the warning findable on the timeline
		// amid the batch spans the drivers emit. It reads no clock: it takes
		// the engine's next reading, at a timed pick or the end of the
		// batch, and the blamed transaction is named only on export.
		b.Mark("warning", (*warningArgs)(w))
	}
	c.snap.Warnings++
	if w.Increasing {
		c.snap.Increasing++
	}
	if w.Blamed != nil {
		c.snap.Blamed++
	}
	c.snap.Refuted += len(w.Refuted)
	if len(c.warns) < c.opts.MaxWarnings {
		c.warns = append(c.warns, w)
	}
	if c.opts.FirstOnly {
		c.done = true
	}
	return w
}
