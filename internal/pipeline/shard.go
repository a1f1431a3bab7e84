package pipeline

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// shard is one mark worker's private replica of the trace bookkeeping
// the marking contract needs. Every worker scans every batch in trace
// order, so each shard sees the full event sequence; it decides marks
// only for the variables it owns (x % workers == id) but tracks thread
// adjacency and transaction depth for all threads, since any event of a
// thread is a barrier for that thread's marks. Nothing here touches the
// engines: a shard's only output is batch.marks entries for owned
// variables, which no other worker writes.
type shard struct {
	id, n  int64
	ignore map[trace.Label]bool
	labels *trace.Labels // the table the ops' label ids index
	// lastT[t] is the trace index of the last event involving thread t —
	// its own operations plus fork/join events naming it — or -1.
	lastT []int64
	// depth[t] counts t's open non-ignored atomic blocks; stacks[t]
	// records the ignored flag per open block, mirroring the engines'
	// begin/end handling of the atomicity specification.
	depth  []int32
	stacks [][]bool
	// vars[x], for owned x, is the variable's adjacency state.
	vars []varMark
}

// varMark tracks, per owned variable, the last access and the anchor
// the current redundant run hangs off.
type varMark struct {
	last   int64 // trace index of the last access of x (-1 = none)
	anchor int64 // trace index of the run's first (unmarked) access
	tid    trace.Tid
	kind   trace.Kind
	marked bool // the last access was itself marked (chained run)
}

func newShard(id, n int, ignore map[trace.Label]bool, labels *trace.Labels) *shard {
	return &shard{id: int64(id), n: int64(n), ignore: ignore, labels: labels}
}

func (s *shard) lastOf(t trace.Tid) int64 {
	if int(t) < len(s.lastT) {
		return s.lastT[t]
	}
	return -1
}

func (s *shard) touch(t trace.Tid, idx int64) {
	for int(t) >= len(s.lastT) {
		s.lastT = append(s.lastT, -1)
	}
	s.lastT[t] = idx
}

func (s *shard) depthOf(t trace.Tid) int32 {
	if int(t) < len(s.depth) {
		return s.depth[t]
	}
	return 0
}

func (s *shard) push(t trace.Tid, ignored bool) {
	for int(t) >= len(s.stacks) {
		s.stacks = append(s.stacks, nil)
	}
	s.stacks[t] = append(s.stacks[t], ignored)
	if !ignored {
		for int(t) >= len(s.depth) {
			s.depth = append(s.depth, 0)
		}
		s.depth[t]++
	}
}

func (s *shard) pop(t trace.Tid) {
	if int(t) >= len(s.stacks) {
		return
	}
	st := s.stacks[t]
	if len(st) == 0 {
		return // unbalanced end: the engines tolerate it, so must we
	}
	ignored := st[len(st)-1]
	s.stacks[t] = st[:len(st)-1]
	if !ignored {
		s.depth[t]--
	}
}

// scan walks one batch in trace order, updating the shard's replica and
// writing anchor marks for owned variables where the contract holds.
func (s *shard) scan(b *batch) {
	for i := range b.ops {
		op := b.ops[i]
		idx := b.base + int64(i)
		t := op.Thread
		switch op.Kind {
		case trace.Begin:
			s.push(t, len(s.ignore) > 0 && s.ignore[s.labels.Name(op.Label)])
		case trace.End:
			s.pop(t)
		case trace.Fork, trace.Join:
			// Desugars to a token-variable handshake touching both
			// threads: a barrier for each. Token variables are outside
			// the dense range, so no shard owns them.
			s.touch(op.Other(), idx)
		case trace.Read, trace.Write:
			x := op.Target
			if x >= 0 && x < core.PrefilterVarLimit && int64(uint32(x))%s.n == s.id {
				s.mark(b, i, idx, op)
			}
		}
		s.touch(t, idx)
	}
}

// mark decides one owned access: strict adjacency — the previous event
// of the thread and the previous access of the variable are the same
// event, same kind, same thread, inside a checked block — lets the run
// be marked with its first access as the anchor.
func (s *shard) mark(b *batch, i int, idx int64, op trace.Op) {
	x := op.Target
	for int(x) >= len(s.vars) {
		s.vars = append(s.vars, varMark{last: -1})
	}
	vm := &s.vars[x]
	t := op.Thread
	if vm.last >= 0 && vm.last == s.lastOf(t) &&
		vm.tid == t && vm.kind == op.Kind && s.depthOf(t) > 0 {
		if !vm.marked {
			vm.anchor = vm.last
			vm.marked = true
		}
		b.marks[i] = vm.anchor
		vm.last = idx
		return
	}
	*vm = varMark{last: idx, anchor: idx, tid: t, kind: op.Kind}
}
