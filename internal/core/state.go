package core

import (
	"repro/internal/trace"
)

// The analysis state components (L, U, R, W of Figures 2 and 4) are keyed
// by thread, lock and variable ids. The rr substrate allocates those
// densely from zero, so slice-backed tables beat maps by a wide margin on
// the hot path (Section 5's "careful data-representation choices"). The
// synthetic fork/join token variables of trace.Desugar live at a high
// offset, so variable tables keep a small sparse overflow map.
//
// The optimized engine and AeroDrome keep the same tables over different
// elements: graph.Step, whose ⊥ is graph.None, and *aeroObj, whose ⊥ is
// nil. Each table carries its ⊥ in a field, so an accessor is a bounds
// check and a load for either element, with no call to find out what ⊥ is.

// grow extends s to length n in a single grow — the append(s,
// make(...)...) form compiles to one copy-free slice extension — then
// fills the new tail with none.
func grow[E comparable](s []E, n int, none E) []E {
	old := len(s)
	s = append(s, make([]E, n-old)...)
	for i := old; i < n; i++ {
		s[i] = none
	}
	return s
}

// table maps a small dense integer id to an E; missing entries are none.
type table[E comparable] struct {
	dense []E
	none  E
}

func (t *table[E]) get(i int32) E {
	if int(i) < len(t.dense) {
		return t.dense[i]
	}
	return t.none
}

func (t *table[E]) set(i int32, e E) {
	if int(i) >= len(t.dense) {
		t.dense = grow(t.dense, int(i)+1, t.none)
	}
	t.dense[i] = e
}

// denseVarLimit bounds the slice-backed range of variable ids; the
// fork/join tokens (≥ 1<<24) fall through to the sparse map.
const denseVarLimit = 1 << 16

// PrefilterVarLimit is the variable-id range covered by the engines'
// per-variable decision caches. internal/pipeline's sharded mark stage
// restricts itself to the same range so every mark it produces lands on
// a cacheable variable.
const PrefilterVarLimit = denseVarLimit

// varTable maps variable ids to Es with a sparse overflow.
type varTable[E comparable] struct {
	dense  table[E]
	sparse map[trace.Var]E
}

func (t *varTable[E]) get(x trace.Var) E {
	if x >= 0 && x < denseVarLimit {
		return t.dense.get(int32(x))
	}
	if e, ok := t.sparse[x]; ok {
		return e
	}
	return t.dense.none
}

func (t *varTable[E]) set(x trace.Var, e E) {
	if x >= 0 && x < denseVarLimit {
		t.dense.set(int32(x), e)
		return
	}
	if t.sparse == nil {
		t.sparse = map[trace.Var]E{}
	}
	t.sparse[x] = e
}

// readTable is R: per variable, the last read of each thread ([]E
// indexed by tid), with the same sparse overflow for token vars. Each
// dense row carries a version counter bumped on every store, so the
// decision cache can detect "some thread read x since I last validated"
// with one integer compare instead of rescanning the row.
type readTable[E comparable] struct {
	dense  [][]E
	vers   []uint32
	sparse map[trace.Var][]E
	none   E
}

// ver returns the version of R[x]'s dense row (0 until first store).
func (t *readTable[E]) ver(x trace.Var) uint32 {
	if int(x) < len(t.vers) {
		return t.vers[x]
	}
	return 0
}

func (t *readTable[E]) bump(x trace.Var) {
	if int(x) >= len(t.vers) {
		t.vers = append(t.vers, make([]uint32, int(x)+1-len(t.vers))...)
	}
	t.vers[x]++
}

func (t *readTable[E]) row(x trace.Var) []E {
	if x >= 0 && x < denseVarLimit {
		if int(x) < len(t.dense) {
			return t.dense[x]
		}
		return nil
	}
	return t.sparse[x]
}

// get returns R[x][tid], or none when absent.
func (t *readTable[E]) get(x trace.Var, tid trace.Tid) E {
	row := t.row(x)
	if int(tid) < len(row) {
		return row[tid]
	}
	return t.none
}

func (t *readTable[E]) set(x trace.Var, tid trace.Tid, e E) {
	var row []E
	if x >= 0 && x < denseVarLimit {
		if int(x) >= len(t.dense) {
			t.dense = append(t.dense, make([][]E, int(x)+1-len(t.dense))...)
		}
		row = t.dense[x]
	} else {
		if t.sparse == nil {
			t.sparse = map[trace.Var][]E{}
		}
		row = t.sparse[x]
	}
	if int(tid) >= len(row) {
		row = grow(row, int(tid)+1, t.none)
	}
	row[tid] = e
	if x >= 0 && x < denseVarLimit {
		t.dense[x] = row
		t.bump(x)
	} else {
		t.sparse[x] = row
	}
}

// clear empties R(x, *). AeroDrome calls it on a write, which subsumes
// all prior reads: the writer joined them (and subscribed to the growable
// ones), so later conflicts reach them transitively through W(x).
func (t *readTable[E]) clear(x trace.Var) {
	row := t.row(x)
	if row == nil {
		return
	}
	for i := range row {
		row[i] = t.none
	}
	if x >= 0 && x < denseVarLimit {
		t.bump(x)
	}
}

// frame is one entry of the per-thread atomic-block stack C(t) of
// Section 4.3: the block's label and the timestamp of its first operation.
type frame struct {
	label   trace.LabelID
	start   uint64
	ignored bool // exempted by the atomicity specification
}

// blocks is C: each thread's open atomic blocks, innermost last, and
// beside them how many are not ignored. A transaction is active exactly
// while that count is positive; keeping it at push and pop spares the
// per-event path a stack scan.
type blocks struct {
	open    [][]frame
	checked []int32 // same length as open
}

func (b *blocks) stack(t trace.Tid) []frame {
	if int(t) < len(b.open) {
		return b.open[t]
	}
	return nil
}

// depth returns the number of open non-ignored blocks of t.
func (b *blocks) depth(t trace.Tid) int32 {
	if int(t) < len(b.checked) {
		return b.checked[t]
	}
	return 0
}

// push opens f as t's innermost block.
func (b *blocks) push(t trace.Tid, f frame) {
	for int(t) >= len(b.open) {
		b.open = append(b.open, nil)
		b.checked = append(b.checked, 0)
	}
	b.open[t] = append(b.open[t], f)
	if !f.ignored {
		b.checked[t]++
	}
}

// pop closes t's innermost block and returns it; false when t has none
// open (an end that closes nothing: an ill-formed stream is not a panic).
func (b *blocks) pop(t trace.Tid) (frame, bool) {
	s := b.stack(t)
	n := len(s) - 1
	if n < 0 {
		return frame{}, false
	}
	b.open[t] = s[:n]
	if !s[n].ignored {
		b.checked[t]--
	}
	return s[n], true
}

// tables is the state layer of the two production engines: C, the
// L/U/W/R tables over E, and the per-variable decision cache. L(t) is the
// thread's last step in the optimized engine and its running (or last)
// transaction object in AeroDrome; either way it is the word a decision
// cache entry calls "current".
type tables[E comparable] struct {
	blocks
	l  table[E]     // L: per thread
	u  table[E]     // U: last release of each lock (AeroDrome's L)
	w  varTable[E]  // W: last write of each variable
	r  readTable[E] // R: last read of each variable per thread
	fc []fcEntry[E] // per-variable decision cache, dense variables only
}

// newTables returns empty tables whose ⊥ is none.
func newTables[E comparable](none E) tables[E] {
	var s tables[E]
	s.l.none, s.u.none, s.w.dense.none, s.r.none = none, none, none, none
	return s
}

// fcEntry memoizes, per variable, the engine state under which the last
// access was proven (optimized engine) or made (AeroDrome) redundant to
// repeat — one slot for reads, one for writes. Thread ids are stored
// shifted by one so the zero value (a freshly grown entry) can never
// match. The slots record L(t), W(x) and, for writes, the version of the
// R(x) row; hit re-matches them bitwise, a handful of word compares — the
// FastTrack-style same-epoch check Section 5's filtering calls for. Why a
// match proves the access redundant is each engine's own argument, next
// to where it stores: filter.go for the optimized engine, insideOp in
// aerodrome.go for AeroDrome. Each engine also decides when it stores.
type fcEntry[E comparable] struct {
	rdTid, wrTid int32 // reader / writer tid + 1; 0 = empty
	rdL, rdW     E
	wrL, wrW     E
	wrVer        uint32 // R(x) row version at the write
}

// hit is the decision cache's test: a few loads and compares, no other
// state touched. Only dense variable ids are cached. It is safe to ask
// before the kind is known: only rd/wr entries exist, and anything else
// misses.
func (s *tables[E]) hit(op *trace.Op) bool {
	x, t := op.Target, int32(op.Thread)
	if uint32(x) >= uint32(len(s.fc)) {
		return false
	}
	e := &s.fc[x]
	if op.Kind == trace.Read {
		return e.rdTid == t+1 && e.rdL == s.l.get(t) && e.rdW == s.w.dense.get(x)
	}
	return op.Kind == trace.Write && e.wrTid == t+1 && e.wrL == s.l.get(t) &&
		e.wrW == s.w.dense.get(x) && e.wrVer == s.r.ver(trace.Var(x))
}

// store records the state after op, an access of a dense variable, so
// that a repeat under the same state hits. Anything else stores nothing.
func (s *tables[E]) store(op trace.Op) {
	x := op.Target
	if op.Kind != trace.Read && op.Kind != trace.Write || x < 0 || x >= denseVarLimit {
		return
	}
	if int(x) >= len(s.fc) {
		s.fc = append(s.fc, make([]fcEntry[E], int(x)+1-len(s.fc))...)
	}
	e, t := &s.fc[x], int32(op.Thread)
	if op.Kind == trace.Read {
		e.rdTid, e.rdL, e.rdW = t+1, s.l.get(t), s.w.dense.get(x)
		return
	}
	e.wrTid, e.wrL, e.wrW, e.wrVer = t+1, s.l.get(t), s.w.dense.get(x), s.r.ver(trace.Var(x))
}
