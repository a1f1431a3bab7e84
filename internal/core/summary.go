package core

import (
	"sort"

	"repro/internal/trace"
)

// MethodSummary aggregates the warnings blamed on one atomic method.
type MethodSummary struct {
	Method     trace.Label
	Count      int      // warnings blamed on the method
	First      *Warning // earliest warning (by operation index)
	Increasing int      // how many had increasing cycles
}

// Summarize groups warnings by blamed method, dropping duplicates the way
// the paper counts "distinct warnings": one row per method, ordered by
// first occurrence. Warnings without blame are grouped under "".
func Summarize(warnings []*Warning) []MethodSummary {
	byMethod := map[trace.Label]*MethodSummary{}
	var order []trace.Label
	for _, w := range warnings {
		m := w.Method()
		s := byMethod[m]
		if s == nil {
			s = &MethodSummary{Method: m, First: w}
			byMethod[m] = s
			order = append(order, m)
		}
		s.Count++
		if w.Increasing {
			s.Increasing++
		}
		if w.OpIndex < s.First.OpIndex {
			s.First = w
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return byMethod[order[i]].First.OpIndex < byMethod[order[j]].First.OpIndex
	})
	out := make([]MethodSummary, 0, len(order))
	for _, m := range order {
		out = append(out, *byMethod[m])
	}
	return out
}

// WarningJSON is a machine-readable view of a Warning (stable field names
// for tool output).
type WarningJSON struct {
	OpIndex    int        `json:"opIndex"`
	Op         string     `json:"op"`
	Method     string     `json:"method,omitempty"`
	Increasing bool       `json:"increasing"`
	Refuted    []string   `json:"refuted,omitempty"`
	Cycle      []EdgeJSON `json:"cycle"`
}

// EdgeJSON is one happens-before edge of the cycle.
type EdgeJSON struct {
	From string `json:"from"`
	To   string `json:"to"`
	Op   string `json:"op"`
}

// JSON returns the machine-readable view.
func (w *Warning) JSON() WarningJSON {
	out := WarningJSON{
		OpIndex:    w.OpIndex,
		Op:         w.Format(w.Op),
		Method:     string(w.Method()),
		Increasing: w.Increasing,
	}
	for _, l := range w.Refuted {
		out.Refuted = append(out.Refuted, string(l))
	}
	edges := w.CycleEdges()
	out.Cycle = make([]EdgeJSON, 0, len(edges)) // "cycle": [] from an engine that reports none
	for _, e := range edges {
		from, _ := e.FromData.(*TxnMeta)
		to, _ := e.ToData.(*TxnMeta)
		out.Cycle = append(out.Cycle, EdgeJSON{
			From: from.String(), To: to.String(), Op: w.Format(e.Op),
		})
	}
	return out
}
