// Package atomizer implements the Atomizer (Flanagan & Freund, POPL 2004),
// the reduction-based dynamic atomicity checker Velodrome is evaluated
// against. Using Lipton's theory of reduction, each event inside an atomic
// block is classified as a mover:
//
//   - lock acquire        → right-mover
//   - lock release        → left-mover
//   - race-free access    → both-mover
//   - racy access         → non-mover (modeled as acquire;access;release)
//
// A block is reduction-serializable when its events match
// (right|both)* [non] (left|both)*. The checker tracks a pre/post-commit
// phase per open block and warns when the pattern breaks. Races are
// judged by the Eraser LockSet algorithm, so — by design, and unlike
// Velodrome — the Atomizer generalizes beyond the observed interleaving
// and produces false alarms on non-lock synchronization idioms
// (fork/join, flag handoff, barriers).
package atomizer

import (
	"fmt"

	"repro/internal/eraser"
	"repro/internal/trace"
)

// Warning is one reduction violation: the named atomic block cannot be
// shown serializable by commuting movers.
type Warning struct {
	OpIndex int
	Op      trace.Op
	Thread  trace.Tid
	Label   trace.Label // label of the violated atomic block
	Reason  string
}

// String renders the warning for human consumption.
func (w Warning) String() string {
	return fmt.Sprintf("atomizer: %s not reducible at op %d (%s): %s",
		w.Label, w.OpIndex, w.Op, w.Reason)
}

// phase of a block's reduction state machine.
type phase int

const (
	preCommit  phase = iota // consuming (right|both)*
	postCommit              // consuming (left|both)*
)

type block struct {
	label    trace.Label
	phase    phase
	violated bool // warn once per block instance
}

// Checker is the online Atomizer analysis. It embeds an Eraser detector
// for mover classification; Races gives access to its warnings. It takes
// ops whose label ids index the process-wide table, as trace.Beg and
// rr's recordings mint them.
type Checker struct {
	er     *eraser.Detector
	blocks map[trace.Tid][]*block
	ignore map[trace.Label]bool
	warns  []Warning
	idx    int
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{er: eraser.New(), blocks: map[trace.Tid][]*block{}}
}

// SetSpec exempts the named atomic blocks from checking (the atomicity
// specification of Section 5; exempted blocks still nest correctly but
// never warn).
func (c *Checker) SetSpec(ignore map[trace.Label]bool) { c.ignore = ignore }

// Warnings returns the reduction violations reported so far.
func (c *Checker) Warnings() []Warning { return c.warns }

// Races exposes the embedded Eraser detector's warnings.
func (c *Checker) Races() []eraser.Warning { return c.er.Warnings() }

// Step processes one operation and returns the warnings it triggered (one
// per violated open block, at most).
func (c *Checker) Step(op trace.Op) []Warning {
	defer func() { c.idx++ }()
	t := op.Thread
	var out []Warning
	switch op.Kind {
	case trace.Begin:
		b := &block{label: trace.ProcessLabels().Name(op.Label)}
		if c.ignore[b.label] {
			b.violated = true // exempted: never warns
		}
		c.blocks[t] = append(c.blocks[t], b)
		c.er.Step(op)
		return nil
	case trace.End:
		if bs := c.blocks[t]; len(bs) > 0 {
			c.blocks[t] = bs[:len(bs)-1]
		}
		c.er.Step(op)
		return nil
	case trace.Acquire:
		out = c.event(op, "acquire (right-mover) after commit point", right)
	case trace.Release:
		out = c.event(op, "", left)
	case trace.Read, trace.Write:
		// Classify against the Eraser state including this access.
		c.er.Step(op)
		if c.er.Racy(op.Var()) {
			out = c.event(op, "racy access (non-mover) after commit point", non)
		} else {
			out = c.event(op, "", both)
		}
		return out
	case trace.Fork, trace.Join:
		// The Atomizer does not model fork/join ordering: this is a source
		// of its false alarms. The embedded Eraser likewise ignores them.
		return nil
	}
	c.er.Step(op)
	return out
}

type mover int

const (
	right mover = iota
	left
	both
	non
)

// event advances every open block's state machine of thread op.Thread.
func (c *Checker) event(op trace.Op, reason string, m mover) []Warning {
	var out []Warning
	for _, b := range c.blocks[op.Thread] {
		switch m {
		case both:
			// Both-movers commute anywhere.
		case right:
			if b.phase == postCommit && !b.violated {
				b.violated = true
				out = append(out, c.warn(op, b, reason))
			}
		case left:
			b.phase = postCommit
		case non:
			if b.phase == preCommit {
				b.phase = postCommit // the single non-mover commit point
			} else if !b.violated {
				b.violated = true
				out = append(out, c.warn(op, b, reason))
			}
		}
	}
	return out
}

func (c *Checker) warn(op trace.Op, b *block, reason string) Warning {
	w := Warning{OpIndex: c.idx, Op: op, Thread: op.Thread, Label: b.label, Reason: reason}
	c.warns = append(c.warns, w)
	return w
}

// Suspicious reports whether executing op next would complete a potential
// atomicity violation: a racy access inside an atomic block that is
// already past its commit point (e.g. the write of an unsynchronized
// read-modify-write whose read was itself a non-mover). The adversarial
// scheduler of Section 5 pauses the thread exactly there, in the hope
// that another thread's conflicting operation interleaves and hands
// Velodrome a concrete witness.
func (c *Checker) Suspicious(op trace.Op) bool {
	if op.Kind != trace.Read && op.Kind != trace.Write {
		return false
	}
	if !c.er.Racy(op.Var()) {
		return false
	}
	for _, b := range c.blocks[op.Thread] {
		if b.phase == postCommit && !b.violated {
			return true
		}
	}
	return false
}

// InnermostLabel returns the label of thread t's innermost open atomic
// block, or "".
func (c *Checker) InnermostLabel(t trace.Tid) trace.Label {
	bs := c.blocks[t]
	if len(bs) == 0 {
		return ""
	}
	return bs[len(bs)-1].label
}

// CheckTrace runs a fresh checker over a whole trace.
func CheckTrace(tr trace.Trace) []Warning {
	c := New()
	for _, op := range tr {
		c.Step(op)
	}
	return c.Warnings()
}
