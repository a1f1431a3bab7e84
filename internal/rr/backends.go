package rr

import (
	"repro/internal/atomizer"
	"repro/internal/core"
	"repro/internal/eraser"
	"repro/internal/trace"
)

// Empty is the do-nothing back-end of Table 1: it measures pure
// instrumentation and event-dispatch overhead.
type Empty struct {
	Count int
}

// Event implements Backend.
func (e *Empty) Event(trace.Op) { e.Count++ }

// Velodrome adapts a core.Checker to the Backend interface.
type Velodrome struct {
	Checker core.Checker
	// Batch, when non-nil, runs after every batchEvents events, on the
	// goroutine that stepped them: where an observed run publishes the
	// checker's snapshot.
	Batch  func()
	events int
}

// batchEvents is a daemon session's batch size, so an observed run
// publishes as often as a session does.
const batchEvents = 4096

// NewVelodrome returns a Velodrome back-end with the given options.
func NewVelodrome(opts core.Options) *Velodrome {
	return &Velodrome{Checker: core.New(opts)}
}

// Event implements Backend.
func (v *Velodrome) Event(op trace.Op) {
	v.Checker.Step(op)
	if v.events++; v.Batch != nil && v.events%batchEvents == 0 {
		v.Batch()
	}
}

// Warnings returns the atomicity violations observed.
func (v *Velodrome) Warnings() []*core.Warning { return v.Checker.Warnings() }

// Eraser adapts the LockSet race detector.
type Eraser struct {
	Detector *eraser.Detector
}

// NewEraser returns an Eraser back-end.
func NewEraser() *Eraser { return &Eraser{Detector: eraser.New()} }

// Event implements Backend.
func (e *Eraser) Event(op trace.Op) { e.Detector.Step(op) }

// Warnings returns the potential races observed.
func (e *Eraser) Warnings() []eraser.Warning { return e.Detector.Warnings() }

// Atomizer adapts the reduction-based atomicity checker.
type Atomizer struct {
	Checker *atomizer.Checker
}

// NewAtomizer returns an Atomizer back-end.
func NewAtomizer() *Atomizer { return &Atomizer{Checker: atomizer.New()} }

// Event implements Backend.
func (a *Atomizer) Event(op trace.Op) { a.Checker.Step(op) }

// Warnings returns the reduction violations observed.
func (a *Atomizer) Warnings() []atomizer.Warning { return a.Checker.Warnings() }

// Multi fans one event stream out to several back-ends, the way
// RoadRunner runs Velodrome and the Atomizer (or a race detector)
// concurrently (Section 5).
type Multi []Backend

// Event implements Backend.
func (m Multi) Event(op trace.Op) {
	for _, b := range m {
		b.Event(op)
	}
}

// AtomizerAdvisor is the adversarial scheduling policy of Section 5: it
// runs an Atomizer on the event stream and asks the scheduler to suspend
// any thread about to perform an operation leading to a potential
// atomicity violation (the completing access of a racy read-modify-write
// inside an atomic block), hoping a conflicting write interleaves and
// hands Velodrome a concrete witness. The suspended thread resumes as
// soon as a conflicting operation lands (see Runtime.wakeConflicting) or
// the park expires.
type AtomizerAdvisor struct {
	Checker *atomizer.Checker
	// PauseWrites and PauseReads select which suspicious accesses pause;
	// Section 5 mentions "pausing writes but not reads" (and vice versa)
	// as policies under exploration.
	PauseWrites bool
	PauseReads  bool
	// NeverPause exempts threads from pausing ("allowing some threads to
	// never pause", Section 5).
	NeverPause map[trace.Tid]bool
	// PauseBudget bounds pauses per atomic block label (0 = unlimited),
	// so a handful of hot suspicious sites cannot monopolize the pauses.
	PauseBudget int
	paused      map[trace.Label]int
}

// NewAtomizerAdvisor returns an advisor pausing both reads and writes,
// at most three times per block label.
func NewAtomizerAdvisor() *AtomizerAdvisor {
	return &AtomizerAdvisor{
		Checker:     atomizer.New(),
		PauseWrites: true,
		PauseReads:  true,
		PauseBudget: 3,
		paused:      map[trace.Label]int{},
	}
}

// Event implements Backend: the advisor must also observe the stream.
func (a *AtomizerAdvisor) Event(op trace.Op) { a.Checker.Step(op) }

// Delay implements Advisor.
func (a *AtomizerAdvisor) Delay(op trace.Op) int {
	if op.Kind == trace.Write && !a.PauseWrites {
		return 0
	}
	if op.Kind == trace.Read && !a.PauseReads {
		return 0
	}
	if a.NeverPause[op.Thread] {
		return 0
	}
	if !a.Checker.Suspicious(op) {
		return 0
	}
	if a.PauseBudget > 0 {
		label := a.Checker.InnermostLabel(op.Thread)
		if a.paused[label] >= a.PauseBudget {
			return 0
		}
		a.paused[label]++
	}
	return 1
}
