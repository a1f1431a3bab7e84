package core

import (
	"repro/internal/graph"
	"repro/internal/trace"
)

// The analysis state components (L, U, R, W of Figures 2 and 4) are keyed
// by thread, lock and variable ids. The rr substrate allocates those
// densely from zero, so slice-backed tables beat maps by a wide margin on
// the hot path (Section 5's "careful data-representation choices"). The
// synthetic fork/join token variables of trace.Desugar live at a high
// offset, so variable tables keep a small sparse overflow map.

// growSteps extends s to length n in a single grow — the
// append(s, make(...)...) form compiles to one copy-free slice
// extension — then fills the new tail with ⊥ (which is ^0, not the
// zero value).
func growSteps(s []graph.Step, n int) []graph.Step {
	old := len(s)
	s = append(s, make([]graph.Step, n-old)...)
	for i := old; i < n; i++ {
		s[i] = graph.None
	}
	return s
}

// stepTable maps a small dense integer id to a Step; missing entries are ⊥.
type stepTable struct {
	dense []graph.Step
}

func (t *stepTable) get(i int32) graph.Step {
	if int(i) < len(t.dense) {
		return t.dense[i]
	}
	return graph.None
}

func (t *stepTable) set(i int32, s graph.Step) {
	if int(i) >= len(t.dense) {
		t.dense = growSteps(t.dense, int(i)+1)
	}
	t.dense[i] = s
}

// denseVarLimit bounds the slice-backed range of variable ids; the
// fork/join tokens (≥ 1<<24) fall through to the sparse map.
const denseVarLimit = 1 << 16

// PrefilterVarLimit is the variable-id range covered by the engines'
// per-variable decision caches. internal/pipeline's sharded mark stage
// restricts itself to the same range so every mark it produces lands on
// a cacheable variable.
const PrefilterVarLimit = denseVarLimit

// varTable maps variable ids to Steps with a sparse overflow.
type varTable struct {
	dense  stepTable
	sparse map[trace.Var]graph.Step
}

func (t *varTable) get(x trace.Var) graph.Step {
	if x >= 0 && x < denseVarLimit {
		return t.dense.get(int32(x))
	}
	if s, ok := t.sparse[x]; ok {
		return s
	}
	return graph.None
}

func (t *varTable) set(x trace.Var, s graph.Step) {
	if x >= 0 && x < denseVarLimit {
		t.dense.set(int32(x), s)
		return
	}
	if t.sparse == nil {
		t.sparse = map[trace.Var]graph.Step{}
	}
	t.sparse[x] = s
}

// readTable is R: per variable, the last-read step of each thread
// ([]Step indexed by tid), with the same sparse overflow for token vars.
// Each dense row carries a version counter bumped on every store, so the
// filter cache can detect "some thread read x since I last validated"
// with one integer compare instead of rescanning the row.
type readTable struct {
	dense  [][]graph.Step
	vers   []uint32
	sparse map[trace.Var][]graph.Step
}

// ver returns the version of R[x]'s dense row (0 until first store).
func (t *readTable) ver(x trace.Var) uint32 {
	if int(x) < len(t.vers) {
		return t.vers[x]
	}
	return 0
}

func (t *readTable) row(x trace.Var) []graph.Step {
	if x >= 0 && x < denseVarLimit {
		if int(x) < len(t.dense) {
			return t.dense[x]
		}
		return nil
	}
	return t.sparse[x]
}

// get returns R[x][tid], or ⊥ when absent.
func (t *readTable) get(x trace.Var, tid trace.Tid) graph.Step {
	row := t.row(x)
	if int(tid) < len(row) {
		return row[tid]
	}
	return graph.None
}

func (t *readTable) set(x trace.Var, tid trace.Tid, s graph.Step) {
	var row []graph.Step
	if x >= 0 && x < denseVarLimit {
		if int(x) >= len(t.dense) {
			t.dense = append(t.dense, make([][]graph.Step, int(x)+1-len(t.dense))...)
		}
		row = t.dense[x]
	} else {
		if t.sparse == nil {
			t.sparse = map[trace.Var][]graph.Step{}
		}
		row = t.sparse[x]
	}
	if int(tid) >= len(row) {
		row = growSteps(row, int(tid)+1)
	}
	row[tid] = s
	if x >= 0 && x < denseVarLimit {
		t.dense[x] = row
		if int(x) >= len(t.vers) {
			t.vers = append(t.vers, make([]uint32, int(x)+1-len(t.vers))...)
		}
		t.vers[x]++
	} else {
		t.sparse[x] = row
	}
}
