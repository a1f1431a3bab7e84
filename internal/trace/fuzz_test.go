package trace

import (
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
