package core

import (
	"encoding/json"
	"testing"

	"repro/internal/forensic"
	"repro/internal/trace"
)

// rmwTrace is the Section 2 read-modify-write violation: thread 2's write
// lands between thread 1's read and write of x inside atomic block "inc".
func rmwTrace() trace.Trace {
	x := trace.Var(0)
	return trace.Trace{
		trace.Beg(1, "inc"),
		trace.Rd(1, x),
		trace.Wr(2, x),
		trace.Wr(1, x),
		trace.Fin(1),
	}
}

// TestForensicsOffNoReport: the default configuration attaches no report.
func TestForensicsOffNoReport(t *testing.T) {
	r := CheckTrace(rmwTrace(), Options{})
	if len(r.Warnings) == 0 {
		t.Fatal("no warnings")
	}
	if rep := r.Warnings[0].Forensics(); rep != nil {
		t.Fatalf("forensics off must attach no report, got %+v", rep)
	}
}

// TestForensicsOnlyKeptWarningsReport: past Options.MaxWarnings a
// warning is counted but not kept, and no report is built for it.
func TestForensicsOnlyKeptWarningsReport(t *testing.T) {
	tr := append(rmwTrace(), rmwTrace()...)
	for _, engine := range []Engine{Optimized, Basic} {
		c := New(Options{Engine: engine, Forensics: true, MaxWarnings: 1})
		var got []*Warning
		for _, op := range tr {
			if w := c.Step(op); w != nil {
				got = append(got, w)
			}
		}
		if len(got) != 2 || len(c.Warnings()) != 1 {
			t.Fatalf("engine %d: %d warnings stepped, %d kept; want 2 and 1", engine, len(got), len(c.Warnings()))
		}
		if got[0].Forensics() == nil || got[1].Forensics() != nil {
			t.Errorf("engine %d: reports %v, %v; want the kept warning's only", engine, got[0].Forensics() != nil, got[1].Forensics() != nil)
		}
	}
}

// TestForensicsReport checks the provenance report of the RMW violation on
// both engines: every conflict edge names a genuine access pair from the
// trace, the blamed transaction is marked, and the flight recorder holds
// the involved threads' operations.
func TestForensicsReport(t *testing.T) {
	tr := rmwTrace()
	for _, opts := range []Options{
		{Forensics: true},
		{Forensics: true, NoMerge: true},
		{Forensics: true, NoFilter: true},
		{Forensics: true, Engine: Basic},
	} {
		r := CheckTrace(tr, opts)
		if len(r.Warnings) != 1 {
			t.Fatalf("opts %+v: %d warnings, want 1", opts, len(r.Warnings))
		}
		w := r.Warnings[0]
		rep := w.Forensics()
		if rep == nil {
			t.Fatalf("opts %+v: no report", opts)
		}
		if rep.OpIndex != int64(w.OpIndex) || rep.Op != w.Op.String() {
			t.Errorf("opts %+v: report names op %d %q, warning has %d %q",
				opts, rep.OpIndex, rep.Op, w.OpIndex, w.Op)
		}
		if opts.Engine != Basic {
			if rep.Blamed == "" || !rep.Increasing {
				t.Errorf("opts %+v: blame missing from report: %+v", opts, rep)
			}
			found := false
			for _, txn := range rep.Txns {
				if txn.Blamed {
					found = true
					if txn.Label != "inc" || txn.End != -1 {
						t.Errorf("opts %+v: blamed txn %+v, want open inc", opts, txn)
					}
				}
			}
			if !found {
				t.Errorf("opts %+v: no transaction marked blamed", opts)
			}
		}
		if len(rep.Edges) < 2 {
			t.Fatalf("opts %+v: cycle has %d edges, want ≥ 2", opts, len(rep.Edges))
		}
		validateEdges(t, tr, rep)
		if len(rep.Threads) == 0 {
			t.Errorf("opts %+v: no flight-recorder windows", opts)
		}
		for _, tw := range rep.Threads {
			for _, o := range tw.Ops {
				if o.Index < 0 || o.Index >= int64(len(tr)) {
					t.Errorf("opts %+v: window op index %d out of range", opts, o.Index)
				}
			}
		}
	}
}

// validateEdges checks every edge's recorded accesses against the trace
// itself: indices name the claimed operations, and conflict-edge access
// pairs really conflict.
func validateEdges(t *testing.T, tr trace.Trace, rep *forensic.Report) {
	t.Helper()
	for i, e := range rep.Edges {
		if e.From < 0 || e.From >= len(rep.Txns) || e.To < 0 || e.To >= len(rep.Txns) {
			t.Errorf("edge %d: txn index out of range: %+v", i, e)
			continue
		}
		if e.Head.Index < 0 || e.Head.Index >= int64(len(tr)) {
			t.Errorf("edge %d: head index %d out of range", i, e.Head.Index)
			continue
		}
		if e.Kind == "program-order" {
			continue
		}
		if e.Tail == nil {
			continue // predecessor predates the recorder (never here, but legal)
		}
		head, tail := tr[e.Head.Index], tr[e.Tail.Index]
		// The engines process fork/join as their desugared token accesses;
		// an index may therefore name the original fork/join op.
		if head.String() != e.Head.Op && head.Kind != trace.Fork && head.Kind != trace.Join {
			t.Errorf("edge %d: head %q but trace[%d] = %q", i, e.Head.Op, e.Head.Index, head)
		}
		if tail.String() != e.Tail.Op && tail.Kind != trace.Fork && tail.Kind != trace.Join {
			t.Errorf("edge %d: tail %q but trace[%d] = %q", i, e.Tail.Op, e.Tail.Index, tail)
		}
		if !trace.Conflicts(tail, head) {
			t.Errorf("edge %d: recorded access pair does not conflict: %s / %s", i, tail, head)
		}
	}
}

// TestForensicsVerdictsUnchanged: enabling forensics must not move, add or
// remove warnings — only annotate them.
func TestForensicsVerdictsUnchanged(t *testing.T) {
	x, y := trace.Var(0), trace.Var(1)
	m := trace.Lock(0)
	traces := []trace.Trace{
		rmwTrace(),
		{trace.Beg(1, "a"), trace.Rd(1, x), trace.Wr(1, x), trace.Fin(1), trace.Wr(2, x)},
		{
			trace.Beg(1, "a"), trace.Acq(1, m), trace.Rel(1, m),
			trace.Acq(2, m), trace.Wr(2, y), trace.Rel(2, m),
			trace.Rd(1, y), trace.Fin(1),
		},
		{trace.ForkOp(1, 2), trace.Beg(2, "b"), trace.Rd(2, x), trace.Wr(1, x), trace.Wr(2, x), trace.Fin(2), trace.JoinOp(1, 2)},
	}
	for _, eng := range []Engine{Optimized, Basic} {
		for ti, tr := range traces {
			plain := CheckTrace(tr, Options{Engine: eng})
			withF := CheckTrace(tr, Options{Engine: eng, Forensics: true})
			if len(plain.Warnings) != len(withF.Warnings) {
				t.Fatalf("engine %v trace %d: %d warnings plain, %d with forensics",
					eng, ti, len(plain.Warnings), len(withF.Warnings))
			}
			for i := range plain.Warnings {
				if plain.Warnings[i].String() != withF.Warnings[i].String() {
					t.Errorf("engine %v trace %d warning %d differs:\n%s\n%s",
						eng, ti, i, plain.Warnings[i], withF.Warnings[i])
				}
			}
			if plain.Filtered != withF.Filtered {
				t.Errorf("engine %v trace %d: filtered %d vs %d", eng, ti, plain.Filtered, withF.Filtered)
			}
		}
	}
}

// TestForensicsReportJSON: the attached report survives the wire format.
func TestForensicsReportJSON(t *testing.T) {
	r := CheckTrace(rmwTrace(), Options{Forensics: true})
	rep := r.Warnings[0].Forensics()
	line, err := rep.MarshalJSONLine()
	if err != nil {
		t.Fatal(err)
	}
	back, err := forensic.ParseReport(line)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := json.Marshal(rep)
	d2, _ := json.Marshal(back)
	if string(d1) != string(d2) {
		t.Errorf("round trip changed report:\n%s\n%s", d1, d2)
	}
}
