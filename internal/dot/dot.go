// Package dot renders Velodrome warnings as Graphviz error graphs in the
// style of Section 5: one box per transaction on the cycle, each
// happens-before edge labeled with the operation that generated it, the
// cycle-closing edge dashed, and the blamed transaction outlined.
package dot

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/forensic"
)

// Render returns the dot source for one warning's error graph.
func Render(w *core.Warning) string {
	var b strings.Builder
	b.WriteString("digraph velodrome {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [shape=box, fontname=\"Helvetica\"];\n")
	title := "non-serializable cycle"
	if w.Blamed != nil {
		title = fmt.Sprintf("Warning: %s is not atomic", label(w.Blamed))
	}
	fmt.Fprintf(&b, "  label=%q;\n  labelloc=t;\n", title)

	// Give each distinct node on the cycle a stable dot id.
	ids := map[string]string{}
	order := []string{}
	name := func(data any) string {
		key := metaKey(data)
		if id, ok := ids[key]; ok {
			return id
		}
		id := fmt.Sprintf("n%d", len(ids))
		ids[key] = id
		order = append(order, key)
		attrs := fmt.Sprintf("label=%q", key)
		if w.Blamed != nil && metaKey(w.Blamed) == key {
			attrs += ", peripheries=2, style=bold"
		}
		fmt.Fprintf(&b, "  %s [%s];\n", id, attrs)
		return id
	}
	edges := w.CycleEdges()
	if len(edges) == 0 {
		// Engines without graph structure (AeroDrome) report only the
		// violating position; render it as a single annotated node.
		fmt.Fprintf(&b, "  n0 [label=%q];\n",
			fmt.Sprintf("violation at op %d: %s", w.OpIndex, w.Op.String()))
	}
	for i, e := range edges {
		from := name(e.FromData)
		to := name(e.ToData)
		style := ""
		if i == len(edges)-1 {
			style = ", style=dashed" // the cycle-closing edge
		}
		fmt.Fprintf(&b, "  %s -> %s [label=%q%s];\n", from, to, e.Op.String(), style)
	}
	_ = order
	b.WriteString("}\n")
	return b.String()
}

func metaKey(data any) string {
	if m, ok := data.(*core.TxnMeta); ok && m != nil {
		return m.String()
	}
	return "?"
}

func label(m *core.TxnMeta) string {
	if m.Label != "" {
		return string(m.Label)
	}
	return m.String()
}

// RenderAll concatenates the error graphs of several warnings, each as its
// own digraph: RenderReport for a warning that carries a provenance
// report — it has the trace spans and access pairs the live graph lacks
// — and Render otherwise.
func RenderAll(warns []*core.Warning) string {
	var b strings.Builder
	for i, w := range warns {
		if i > 0 {
			b.WriteByte('\n')
		}
		if rep := w.Forensics(); rep != nil {
			b.WriteString(RenderReport(rep))
		} else {
			b.WriteString(Render(w))
		}
	}
	return b.String()
}

// RenderReport renders a forensic provenance report as a dot error graph.
// Unlike Render it draws from the report's plain data, so clients that
// only hold a velodromed verdict (not the live graph) can produce the
// same picture: each transaction box carries its trace span, conflict
// edges are labeled with the contended variable and the recorded access
// pair, and the cycle-closing edge is dashed.
func RenderReport(rep *forensic.Report) string {
	var b strings.Builder
	b.WriteString("digraph velodrome {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [shape=box, fontname=\"Helvetica\"];\n")
	title := fmt.Sprintf("non-serializable cycle at op %d: %s", rep.OpIndex, rep.Op)
	if rep.Blamed != "" {
		title = fmt.Sprintf("Warning: %s is not atomic (op %d: %s)", rep.Blamed, rep.OpIndex, rep.Op)
	}
	fmt.Fprintf(&b, "  label=%q;\n  labelloc=t;\n", title)
	for i, t := range rep.Txns {
		span := fmt.Sprintf("ops %d..%d", t.Start, t.End)
		if t.End < 0 {
			span = fmt.Sprintf("ops %d.. (open)", t.Start)
		}
		attrs := fmt.Sprintf("label=%q", fmt.Sprintf("%s\n%s", t.Name, span))
		if t.Blamed {
			attrs += ", peripheries=2, style=bold"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", i, attrs)
	}
	for _, e := range rep.Edges {
		var label string
		switch {
		case e.Kind == "program-order":
			label = fmt.Sprintf("po(t%d)", e.Head.Thread)
		case e.Tail != nil:
			label = fmt.Sprintf("%s: %s@%d ⇒ %s@%d", e.Conflict, e.Tail.Op, e.Tail.Index, e.Head.Op, e.Head.Index)
		default:
			label = fmt.Sprintf("%s: %s@%d", e.Conflict, e.Head.Op, e.Head.Index)
		}
		style := ""
		if e.Closing {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q%s];\n", e.From, e.To, label, style)
	}
	b.WriteString("}\n")
	return b.String()
}
