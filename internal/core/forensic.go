package core

// Forensics support shared by the graph engines: provenance construction for
// happens-before edges, transaction end stamps, and the assembly of a
// warning's provenance report from the detected cycle plus the flight
// recorder. Everything here runs only under Options.Forensics; the
// rec == nil path never reaches it. The engines' rules never test the
// recorder themselves: each edge takes prov's result as an argument.

import (
	"sort"

	"repro/internal/forensic"
	"repro/internal/graph"
	"repro/internal/trace"
)

// programOrder is the tail kind prov reads as a program-order edge
// (thread-successor ordering, from L(t)): its tail is no access a table
// stored.
const programOrder = trace.Begin

// prov is the access-pair provenance of an edge the operation being
// processed, op, draws: from the stored step of its tail access of kind
// — the last release of op's lock (trace.Release), the last write of
// op's variable (trace.Write) or thread tid's last read of it
// (trace.Read) — or, for programOrder, from L(t). It is nil with
// forensics off, and valid until the next call: graph.AddEdge copies it.
func (c *common) prov(op trace.Op, kind trace.Kind, tid trace.Tid) *graph.EdgeProv {
	if c.rec == nil {
		return nil
	}
	return c.recordedProv(op, kind, tid)
}

// recordedProv is prov with forensics on, apart so that prov inlines.
func (c *common) recordedProv(op trace.Op, kind trace.Kind, tid trace.Tid) *graph.EdgeProv {
	var tail forensic.Access
	switch kind {
	case trace.Release:
		tail = c.rec.LastRelease(op.Lock())
	case trace.Write:
		tail = c.rec.LastWrite(op.Var())
	case trace.Read:
		tail = c.rec.LastRead(op.Var(), tid)
	}
	p := &c.edgeProv
	*p = graph.EdgeProv{HeadIdx: int64(c.idx), Program: kind == programOrder}
	if tail.OK {
		p.TailIdx, p.TailOp, p.HasTail = tail.Idx, tail.Op, true
	}
	return p
}

// mergeProvs is the provenance of each edge merge draws from preds for
// op, in the order outsideOp lists them — L(t), then U(m) for an
// acquire, W(x) for a read, or R(x,t') for each t' then W(x) for a
// write — or nil with forensics off. It is valid until the next call.
func (c *optChecker) mergeProvs(op trace.Op, preds []graph.Step) []graph.EdgeProv {
	if c.rec == nil {
		return nil
	}
	return c.recordedProvs(op, preds)
}

// recordedProvs is mergeProvs with forensics on, apart so that
// mergeProvs inlines.
func (c *optChecker) recordedProvs(op trace.Op, preds []graph.Step) []graph.EdgeProv {
	provs := c.provs[:0]
	for i := range preds {
		kind, tid := programOrder, trace.Tid(0)
		switch {
		case i == 0:
		case op.Kind == trace.Acquire:
			kind = trace.Release
		case op.Kind == trace.Read || i == len(preds)-1:
			kind = trace.Write
		default:
			kind, tid = trace.Read, trace.Tid(i-1)
		}
		provs = append(provs, *c.prov(op, kind, tid))
	}
	c.provs = provs
	return provs
}

// finish is [INS EXIT] for the transaction at s: under forensics it
// first stamps the transaction's End, while s's node is surely alive.
func (c *common) finish(s graph.Step) {
	if c.rec != nil {
		if m, ok := c.g.Data(s).(*TxnMeta); ok {
			m.End = c.idx
		}
	}
	c.g.Finish(s)
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
