package core

// Forensics support shared by the graph engines: provenance construction for
// happens-before edges and the assembly of a warning's provenance report
// from the detected cycle plus the flight recorder. Everything here runs
// only under Options.Forensics; the rec == nil path never reaches it.

import (
	"sort"

	"repro/internal/forensic"
	"repro/internal/graph"
	"repro/internal/trace"
)

// poProv is the provenance of a program-order edge (thread-successor
// ordering) inserted by the operation being processed.
func (c *common) poProv() graph.EdgeProv {
	return graph.EdgeProv{HeadIdx: int64(c.idx), Program: true}
}

// tailProv is the provenance of a conflict edge inserted by the operation
// being processed, drawn from the stored predecessor step whose recorded
// access is tail (no tail access when the recorder has none, e.g. a
// predecessor stored before forensics could observe it).
func (c *common) tailProv(tail forensic.Access) graph.EdgeProv {
	p := graph.EdgeProv{HeadIdx: int64(c.idx)}
	if tail.OK {
		p.TailIdx, p.TailOp, p.HasTail = tail.Idx, tail.Op, true
	}
	return p
}

// addEdgeP inserts from ⇒ to with prov beside it (graph.AddEdgeP copies).
func (c *common) addEdgeP(from, to graph.Step, op trace.Op, prov graph.EdgeProv) *graph.Cycle {
	return c.g.AddEdgeP(from, to, op, &prov)
}

// noteOp feeds the flight recorder; access mirrors a W/R/U table store
// into the last-access provenance tables. Both are no-ops with
// forensics off.
func (c *common) noteOp(op trace.Op) {
	if c.rec != nil {
		c.rec.Note(int64(c.idx), op)
	}
}

func (c *common) access(op trace.Op) {
	if c.rec != nil {
		c.rec.Access(int64(c.idx), op)
	}
}

// buildReport assembles the provenance report for w at warning time: the
// cycle's transactions and edges (with the access pairs each edge's
// graph.EdgeProv names) plus the involved threads' flight-recorder windows.
func (c *common) buildReport(w *Warning) *forensic.Report {
	rep := &forensic.Report{
		OpIndex:    int64(w.OpIndex),
		Op:         w.Format(w.Op),
		Increasing: w.Increasing,
	}
	if w.Blamed != nil {
		rep.Blamed = w.Blamed.String()
	}
	for _, l := range w.Refuted {
		rep.Refuted = append(rep.Refuted, string(l))
	}
	idxOf := map[graph.NodeID]int{}
	threads := map[trace.Tid]bool{}
	addTxn := func(id graph.NodeID, data any) int {
		if i, ok := idxOf[id]; ok {
			return i
		}
		t := forensic.Txn{Start: -1, End: -1}
		if meta, ok := data.(*TxnMeta); ok && meta != nil {
			t.Name = meta.String()
			t.Thread = int32(meta.Thread)
			t.Label = string(meta.Label)
			t.Start = int64(meta.Start)
			t.End = int64(meta.End)
			t.Unary = meta.Unary
			t.Blamed = meta == w.Blamed
			threads[meta.Thread] = true
		} else {
			t.Name = "?"
			t.Unknown = true
		}
		i := len(rep.Txns)
		idxOf[id] = i
		rep.Txns = append(rep.Txns, t)
		return i
	}
	edges := w.CycleEdges()
	for i, e := range edges {
		from := addTxn(e.From, e.FromData)
		to := addTxn(e.To, e.ToData)
		var prov graph.EdgeProv // every edge has one under forensics; none reads as the zero value
		if e.Prov != nil {
			prov = *e.Prov
		}
		kind, conflict := "conflict", forensic.ConflictTarget(e.Op)
		if prov.Program {
			kind, conflict = "program-order", ""
		}
		re := forensic.Edge{
			From: from, To: to, Kind: kind, Conflict: conflict,
			Head: forensic.AccessJSON{
				Index: prov.HeadIdx, Op: w.Format(e.Op), Thread: int32(e.Op.Thread),
			},
			TailTime: e.TailTime,
			HeadTime: e.HeadTime,
			Closing:  i == len(edges)-1,
		}
		if prov.HasTail {
			re.Tail = &forensic.AccessJSON{
				Index:  prov.TailIdx,
				Op:     w.Format(prov.TailOp),
				Thread: int32(prov.TailOp.Thread),
			}
		}
		threads[e.Op.Thread] = true
		rep.Edges = append(rep.Edges, re)
	}
	tids := make([]trace.Tid, 0, len(threads))
	for t := range threads {
		tids = append(tids, t)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, t := range tids {
		if ops := c.rec.ThreadWindow(t, c.labels); len(ops) > 0 {
			rep.Threads = append(rep.Threads, forensic.ThreadWindow{Thread: int32(t), Ops: ops})
		}
	}
	return rep
}
