package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Rd(1, 3), "rd(1,x3)"},
		{Wr(2, 0), "wr(2,x0)"},
		{Acq(1, 2), "acq(1,m2)"},
		{Rel(1, 2), "rel(1,m2)"},
		{Beg(4, "add"), "begin.add(4)"},
		{Beg(4, ""), "begin(4)"},
		{Fin(4), "end(4)"},
		{ForkOp(1, 2), "fork(1,t2)"},
		{JoinOp(1, 2), "join(1,t2)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.op, got, c.want)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	opsList := []Op{
		Rd(1, 3), Wr(2, 0), Acq(1, 2), Rel(1, 2),
		Beg(4, "Set.add"), Beg(4, ""), Fin(4), ForkOp(1, 2), JoinOp(3, 2),
	}
	for _, op := range opsList {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got != op {
			t.Errorf("round trip %q: got %+v, want %+v", op.String(), got, op)
		}
	}
}

func TestParseOpErrors(t *testing.T) {
	for _, bad := range []string{
		"", "rd", "rd(1)", "rd(1,y3)", "rd(a,x3)", "frob(1,x2)",
		"rd(1,x3", "acq(1,x3)", "fork(1,x2)", "rd(1,xx)",
	} {
		if _, err := ParseOp(bad); err == nil {
			t.Errorf("ParseOp(%q) succeeded, want error", bad)
		}
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	tr := Trace{
		Beg(1, "m"), Rd(1, 0), Acq(1, 1), Wr(1, 0), Rel(1, 1), Fin(1),
		ForkOp(1, 2), Wr(2, 3), JoinOp(1, 2),
	}
	var buf bytes.Buffer
	if err := Marshal(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("length %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Errorf("op %d: %+v != %+v", i, got[i], tr[i])
		}
	}
}

func TestUnmarshalSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nrd(1,x0)\n  # indented comment\nwr(2,x1)\n"
	tr, err := ReadAuto(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || tr[0] != Rd(1, 0) || tr[1] != Wr(2, 1) {
		t.Fatalf("got %v", tr)
	}
}

func TestUnmarshalReportsLine(t *testing.T) {
	_, err := ReadAuto(strings.NewReader("rd(1,x0)\nbogus\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 mention", err)
	}
}

func TestThreads(t *testing.T) {
	tr := Trace{Wr(3, 0), Rd(1, 0), ForkOp(1, 5), Fin(2)}
	got := tr.Threads()
	want := []Tid{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Threads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Threads = %v, want %v", got, want)
		}
	}
}

func TestDesugarFork(t *testing.T) {
	tr := Trace{ForkOp(1, 2), Wr(2, 0), JoinOp(1, 2)}
	d := tr.Desugar()
	if len(d) != 5 {
		t.Fatalf("desugared length %d, want 5", len(d))
	}
	// fork → wr(1,tok), rd(2,tok)
	if d[0].Kind != Write || d[0].Thread != 1 {
		t.Errorf("d[0] = %v", d[0])
	}
	if d[1].Kind != Read || d[1].Thread != 2 || d[1].Target != d[0].Target {
		t.Errorf("d[1] = %v", d[1])
	}
	// join → wr(2,tok'), rd(1,tok')
	if d[3].Kind != Write || d[3].Thread != 2 {
		t.Errorf("d[3] = %v", d[3])
	}
	if d[4].Kind != Read || d[4].Thread != 1 || d[4].Target != d[3].Target {
		t.Errorf("d[4] = %v", d[4])
	}
	if d[0].Target == d[3].Target {
		t.Error("fork and join tokens must differ")
	}
}

func TestConflicts(t *testing.T) {
	cases := []struct {
		a, b Op
		want bool
	}{
		{Rd(1, 0), Rd(2, 0), false}, // read-read: no conflict
		{Rd(1, 0), Wr(2, 0), true},
		{Wr(1, 0), Wr(2, 0), true},
		{Wr(1, 0), Wr(2, 1), false},
		{Acq(1, 0), Rel(2, 0), true},
		{Acq(1, 0), Acq(2, 1), false},
		{Rd(1, 0), Rd(1, 1), true}, // same thread
		{Beg(1, "a"), Fin(2), false},
		{Beg(1, "a"), Fin(1), true},
		{ForkOp(1, 2), Rd(2, 0), true},
		{Wr(2, 0), JoinOp(1, 2), true},
		{ForkOp(1, 2), Rd(3, 0), false},
	}
	for _, c := range cases {
		if got := Conflicts(c.a, c.b); got != c.want {
			t.Errorf("Conflicts(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestConflictsSymmetric(t *testing.T) {
	mk := func(kind Kind, tid Tid, tgt int32) Op {
		return Op{Kind: kind, Thread: tid, Target: tgt}
	}
	f := func(k1, k2 uint8, t1, t2 int8, g1, g2 int8) bool {
		a := mk(Kind(k1%6), Tid(t1%3), int32(g1%3))
		b := mk(Kind(k2%6), Tid(t2%3), int32(g2%3))
		return Conflicts(a, b) == Conflicts(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAccepts(t *testing.T) {
	good := []Trace{
		{},
		{Rd(1, 0), Wr(2, 0)},
		{Acq(1, 0), Rel(1, 0), Acq(2, 0), Rel(2, 0)},
		{Beg(1, "a"), Beg(1, "b"), Fin(1), Fin(1)},
		{Beg(1, "a"), Rd(1, 0)}, // unterminated block: allowed
		{ForkOp(1, 2), Wr(2, 0), JoinOp(1, 2)},
	}
	for i, tr := range good {
		if err := Validate(tr); err != nil {
			t.Errorf("trace %d: unexpected error %v", i, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Trace{
		{Acq(1, 0), Acq(2, 0)},       // lock already held
		{Acq(1, 0), Acq(1, 0)},       // re-entrant (must be filtered)
		{Rel(1, 0)},                  // release unheld
		{Acq(1, 0), Rel(2, 0)},       // release by non-holder
		{Fin(1)},                     // end without begin
		{ForkOp(1, 1)},               // self-fork
		{ForkOp(1, 2), ForkOp(3, 2)}, // double fork
		{Wr(2, 0), ForkOp(1, 2)},     // forked thread already ran
		{JoinOp(1, 2), Wr(2, 0)},     // act after join
	}
	for i, tr := range bad {
		if err := Validate(tr); err == nil {
			t.Errorf("trace %d: expected validation error", i)
		}
	}
}

func TestValidationErrorMessage(t *testing.T) {
	err := Validate(Trace{Rel(1, 7)})
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ve.Index != 0 || !strings.Contains(ve.Error(), "m7") {
		t.Errorf("unexpected error %v", ve)
	}
}

func TestSummarize(t *testing.T) {
	tr := Trace{
		Beg(1, "m"), Rd(1, 0), Wr(1, 1), Acq(1, 0), Rel(1, 0), Fin(1),
		ForkOp(1, 2), Wr(2, 0), JoinOp(1, 2),
	}
	st := Summarize(tr)
	if st.Ops != 9 || st.Threads != 2 || st.Vars != 2 || st.Locks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByKind[Read] != 1 || st.ByKind[Write] != 2 || st.ByKind[Begin] != 1 {
		t.Fatalf("by kind = %v", st.ByKind)
	}
}
