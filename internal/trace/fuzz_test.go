package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzParseOp: whatever the input, ParseOp must not panic, and anything
// it accepts must round-trip through String.
func FuzzParseOp(f *testing.F) {
	for _, seed := range []string{
		"rd(1,x0)", "wr(2,x31)", "acq(3,m2)", "rel(3,m2)",
		"begin.Set.add(4)", "begin(1)", "end(1)", "fork(1,t2)", "join(1,t2)",
		"", "rd", "rd(", "rd(1,", "rd(1,x", "frob(1,x1)", "rd(999999999999,x0)",
		"begin..(1)", "rd(1,x-3)", "rd(-1,x0)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		op, err := ParseOp(s)
		if err != nil {
			return
		}
		rt, err2 := ParseOp(op.String())
		if err2 != nil {
			t.Fatalf("accepted %q but rendering %q fails: %v", s, op.String(), err2)
		}
		if rt != op {
			t.Fatalf("round trip of %q: %+v != %+v", s, rt, op)
		}
	})
}

// FuzzUnmarshal: ReadAuto must never panic on multi-line text inputs;
// accepted traces must re-marshal losslessly.
func FuzzUnmarshal(f *testing.F) {
	f.Add("rd(1,x0)\nwr(2,x0)\n")
	f.Add("# comment\n\nbegin.m(1)\nend(1)\n")
	f.Add("garbage\n")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ReadAuto(strings.NewReader(s))
		if err != nil {
			return
		}
		var b strings.Builder
		if err := Marshal(&b, tr); err != nil {
			t.Fatal(err)
		}
		tr2, err := ReadAuto(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if tr.String() != tr2.String() {
			t.Fatal("marshal round trip changed the trace")
		}
	})
}

// FuzzWellFormed: whatever ops the bytes decode to, Validate must not
// panic, and Undo must take back Step exactly: the input's ops are
// stepped (refused ones skipped) and the accepted ones undone in reverse
// order, and after each Undo, Allowed answers every op as it did before
// the Step undone; after the last, as the empty trace's checker does.
func FuzzWellFormed(f *testing.F) {
	for _, tr := range []Trace{
		{Acq(1, 0), Acq(2, 0)},
		{Acq(1, 0), Acq(1, 0)},
		{Rel(1, 0)},
		{Acq(1, 0), Rel(2, 0)},
		{Fin(1)},
		{ForkOp(1, 1)},
		{ForkOp(1, 2), ForkOp(3, 2)},
		{Wr(2, 0), ForkOp(1, 2)},
		{JoinOp(1, 2), Wr(2, 0)},
	} {
		var b bytes.Buffer
		if err := MarshalBinary(&b, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		f.Add([]byte(tr.String()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, _ := NewDecoder(bytes.NewReader(data)).ReadAll()
		_ = Validate(tr)           // only must not panic here
		tr = tr[:min(len(tr), 64)] // the check is quadratic
		var w WellFormed
		answers := func() string {
			var b strings.Builder
			for _, op := range tr {
				fmt.Fprintln(&b, w.Allowed(op))
			}
			return b.String()
		}
		zero := answers()
		var accepted Trace
		var before []string
		for _, op := range tr {
			if w.Allowed(op) == nil {
				before = append(before, answers())
				accepted = append(accepted, op)
				if err := w.Step(op); err != nil {
					t.Fatalf("Step(%s) refused what Allowed accepted: %v", op, err)
				}
			}
		}
		for i := len(accepted) - 1; i >= 0; i-- {
			w.Undo(accepted[i])
			if got := answers(); got != before[i] {
				t.Fatalf("after undoing %s (accepted op %d), Allowed answers\n%s\nwant\n%s", accepted[i], i, got, before[i])
			}
		}
		if len(accepted) > 0 && before[0] != zero {
			t.Fatal("Allowed changed the checker")
		}
	})
}
