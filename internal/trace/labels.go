package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// LabelID names a Begin label by its index in a Labels table. It keeps
// Op free of pointers: an id is an int32, where a Label is a string
// header the garbage collector would have to scan in every batch, edge
// and flight-recorder slot that holds an operation. Id 0 is the empty
// label in every table, so the zero Op{Kind: Begin} is an unlabelled
// block.
type LabelID int32

// Labels is an append-only table of Begin label names, indexed by
// LabelID. An id means something only in the table that minted it:
//
//   - ops built in code (Beg, ParseOp), rr's recordings, the one-shot
//     whole-trace reader ReadAuto, and any Decoder made by NewDecoder,
//     mint into one process-wide table, ProcessLabels, whose names come
//     from program text or, at most maxStreamLabelBytes of them, from
//     each stream read;
//   - a Decoder made by NewDecoderLabels mints into the table it is
//     given: a daemon session gives each decoder its own, which dies with
//     the session.
//
// Whoever hands ops to a checker hands it their table too (core.Batch).
// A table is safe for concurrent use: Name is one atomic load and a slice
// index, and Intern locks.
type Labels struct {
	names atomic.Pointer[[]Label] // names[id]; only ever appended to

	mu  sync.Mutex
	ids map[Label]LabelID
}

// NewLabels returns a table holding only the empty label, as id 0.
func NewLabels() *Labels {
	t := &Labels{ids: map[Label]LabelID{"": 0}}
	names := []Label{""}
	t.names.Store(&names)
	return t
}

var processLabels = NewLabels()

// ProcessLabels returns the process-wide table: the one Beg, ParseOp,
// NewDecoder and the one-shot readers mint into, and the one Op.String
// and the encoders name labels through.
func ProcessLabels() *Labels { return processLabels }

// Intern returns l's id, minting the next one if the table has not seen
// l.
func (t *Labels) Intern(l Label) LabelID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[l]; ok {
		return id
	}
	// Appending past the published length leaves every reader's view
	// as it was; the store below publishes the longer one.
	names := append(*t.names.Load(), l)
	id := LabelID(len(names) - 1)
	t.ids[l] = id
	t.names.Store(&names)
	return id
}

// Name returns the label id stands for. An id the table never minted —
// an op whose id belongs to another table — reads as "#id", so the
// mistake shows in the output instead of naming some other block.
func (t *Labels) Name(id LabelID) Label {
	if names := *t.names.Load(); uint(id) < uint(len(names)) {
		return names[id]
	}
	return Label(fmt.Sprintf("#%d", id))
}

// Len returns the number of ids minted so far, the empty label's
// included.
func (t *Labels) Len() int { return len(*t.names.Load()) }
