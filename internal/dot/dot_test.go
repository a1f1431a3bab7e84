package dot

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func rmwWarning(t *testing.T) *core.Warning {
	t.Helper()
	return rmwWarningWith(t, core.Options{})
}

func rmwWarningWith(t *testing.T, opts core.Options) *core.Warning {
	t.Helper()
	x := trace.Var(0)
	tr := trace.Trace{
		trace.Beg(1, "Set.add"),
		trace.Rd(1, x),
		trace.Wr(2, x),
		trace.Wr(1, x),
		trace.Fin(1),
	}
	res := core.CheckTrace(tr, opts)
	if res.Serializable || len(res.Warnings) == 0 {
		t.Fatal("expected a warning")
	}
	return res.Warnings[0]
}

func TestRenderStructure(t *testing.T) {
	out := Render(rmwWarning(t))
	for _, want := range []string{
		"digraph velodrome",
		"Warning: Set.add is not atomic", // title names the blamed method
		"shape=box",                      // transactions are boxes
		"peripheries=2",                  // the blamed box is outlined
		"style=dashed",                   // the closing edge is dashed
		"wr(2,x0)",                       // edges labeled with the operation
		"wr(1,x0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendering:\n%s", want, out)
		}
	}
}

func TestRenderDashedOnlyLastEdge(t *testing.T) {
	out := Render(rmwWarning(t))
	if got := strings.Count(out, "style=dashed"); got != 1 {
		t.Errorf("dashed edges = %d, want exactly 1 (the cycle-closing edge)", got)
	}
}

func TestRenderNodesDeduplicated(t *testing.T) {
	// A cycle of length 2 has exactly 2 node declarations.
	out := Render(rmwWarning(t))
	if got := strings.Count(out, "label=\"Set.add"); got != 1 {
		t.Errorf("Set.add boxes = %d, want 1", got)
	}
	if got := strings.Count(out, "label=\"unary"); got != 1 {
		t.Errorf("unary boxes = %d, want 1", got)
	}
}

func TestRenderWithoutBlame(t *testing.T) {
	w := rmwWarning(t)
	w.Blamed = nil
	out := Render(w)
	if !strings.Contains(out, "non-serializable cycle") {
		t.Errorf("unblamed warnings need the generic title:\n%s", out)
	}
	if strings.Contains(out, "peripheries=2") {
		t.Error("no box should be outlined without blame")
	}
}

// TestRenderAll: one digraph per warning, drawn from its provenance
// report when it carries one.
func TestRenderAll(t *testing.T) {
	plain := rmwWarning(t)
	forensic := rmwWarningWith(t, core.Options{Forensics: true})
	rep := forensic.Forensics()
	if rep == nil {
		t.Fatal("no forensic report attached")
	}
	for _, c := range []struct {
		name  string
		warns []*core.Warning
		want  string
	}{
		{"empty", nil, ""},
		{"plain", []*core.Warning{plain, plain}, Render(plain) + "\n" + Render(plain)},
		{"forensic", []*core.Warning{forensic, plain}, RenderReport(rep) + "\n" + Render(plain)},
	} {
		out := RenderAll(c.warns)
		if out != c.want {
			t.Errorf("%s: RenderAll =\n%s\nwant\n%s", c.name, out, c.want)
		}
		if got := strings.Count(out, "digraph velodrome"); got != len(c.warns) {
			t.Errorf("%s: digraphs = %d, want %d", c.name, got, len(c.warns))
		}
	}
}

// TestRenderAllSharedTransactions renders two warnings whose cycles pass
// through the same atomic block: each digraph must stand alone, with its
// own node ids and exactly one box for the shared transaction.
func TestRenderAllSharedTransactions(t *testing.T) {
	x, y := trace.Var(0), trace.Var(1)
	tr := trace.Trace{
		trace.Beg(1, "inc2"),
		trace.Rd(1, x), trace.Rd(1, y),
		trace.Wr(2, x), trace.Wr(2, y),
		trace.Wr(1, x), trace.Wr(1, y),
		trace.Fin(1),
	}
	res := core.CheckTrace(tr, core.Options{})
	if len(res.Warnings) < 2 {
		t.Fatalf("want ≥ 2 warnings sharing a transaction, got %d", len(res.Warnings))
	}
	out := RenderAll(res.Warnings)
	graphs := strings.Split(out, "digraph velodrome")
	if len(graphs)-1 != len(res.Warnings) {
		t.Fatalf("digraphs = %d, want %d", len(graphs)-1, len(res.Warnings))
	}
	for i, g := range graphs[1:] {
		if got := strings.Count(g, "label=\"inc2"); got != 1 {
			t.Errorf("graph %d: shared inc2 box appears %d times, want 1:\n%s", i, got, g)
		}
		// Node ids restart per digraph: every graph declares n0.
		if !strings.Contains(g, "  n0 [") {
			t.Errorf("graph %d: node ids did not restart at n0", i)
		}
	}
}

// checkStructure is the golden structural check: balanced braces, every
// edge endpoint declared, and at most one edge per ordered node pair.
func checkStructure(t *testing.T, out string) {
	t.Helper()
	if o, c := strings.Count(out, "{"), strings.Count(out, "}"); o != c || o == 0 {
		t.Errorf("unbalanced braces: %d open, %d close", o, c)
	}
	declared := map[string]bool{}
	edges := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "n") {
			continue
		}
		if i := strings.Index(line, " -> "); i >= 0 {
			from := line[:i]
			to := line[i+4:]
			if j := strings.IndexAny(to, " ["); j >= 0 {
				to = to[:j]
			}
			edges[from+"->"+to]++
			if !declared[from] || !declared[to] {
				t.Errorf("edge %s -> %s references an undeclared node", from, to)
			}
		} else if i := strings.Index(line, " ["); i >= 0 {
			declared[line[:i]] = true
		}
	}
	if len(declared) == 0 || len(edges) == 0 {
		t.Fatalf("no nodes or edges parsed from:\n%s", out)
	}
	for pair, n := range edges {
		if n != 1 {
			t.Errorf("edge %s rendered %d times, want 1", pair, n)
		}
	}
}

func TestRenderStructural(t *testing.T) {
	checkStructure(t, Render(rmwWarning(t)))
}

func TestRenderReport(t *testing.T) {
	x := trace.Var(0)
	tr := trace.Trace{
		trace.Beg(1, "Set.add"),
		trace.Rd(1, x),
		trace.Wr(2, x),
		trace.Wr(1, x),
		trace.Fin(1),
	}
	res := core.CheckTrace(tr, core.Options{Forensics: true})
	if len(res.Warnings) == 0 {
		t.Fatal("expected a warning")
	}
	rep := res.Warnings[0].Forensics()
	if rep == nil {
		t.Fatal("no forensic report attached")
	}
	out := RenderReport(rep)
	for _, want := range []string{
		"Warning: Set.add@0(t1) is not atomic",
		"peripheries=2",  // blamed box outlined
		"style=dashed",   // closing edge dashed
		"ops 0.. (open)", // blamed txn still open: span rendered
		"x0:",            // conflict edge names the contended variable
		"wr(2,x0)@2",     // ... and the recorded access pair
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in report rendering:\n%s", want, out)
		}
	}
	checkStructure(t, out)
}
