package forensic

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/trace"
)

// TestRingWindow checks ordering and wraparound of the flight recorder.
func TestRingWindow(t *testing.T) {
	r := NewRecorder(4)
	if w := r.ThreadWindow(0, trace.ProcessLabels()); w != nil {
		t.Fatalf("fresh recorder window = %v, want nil", w)
	}
	for i := 0; i < 10; i++ {
		r.Note(int64(i), trace.Rd(1, trace.Var(i)))
	}
	w := r.ThreadWindow(1, trace.ProcessLabels())
	if len(w) != 4 {
		t.Fatalf("window length %d, want 4", len(w))
	}
	for i, op := range w {
		wantIdx := int64(6 + i)
		if op.Index != wantIdx {
			t.Errorf("window[%d].Index = %d, want %d", i, op.Index, wantIdx)
		}
	}
	if last := r.LastOf(1); !last.OK || last.Idx != 9 {
		t.Errorf("LastOf = %+v, want idx 9", last)
	}
	// A short-lived thread keeps everything it did.
	r.Note(100, trace.Wr(3, 7))
	if w := r.ThreadWindow(3, trace.ProcessLabels()); len(w) != 1 || w[0].Index != 100 {
		t.Errorf("thread 3 window = %v", w)
	}
}

// TestRecorderSteadyStateAllocs: after warm-up, Note and Access on seen
// threads/variables must not allocate — the recorder rides the engines'
// hot path when forensics is on, and its cost must stay bounded.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	r := NewRecorder(16)
	warm := func() {
		for i := int64(0); i < 64; i++ {
			r.Note(i, trace.Rd(2, 5))
			r.Access(i, trace.Rd(2, 5))
			r.Access(i, trace.Wr(1, 5))
			r.Access(i, trace.Rel(1, 3))
		}
	}
	warm()
	avg := testing.AllocsPerRun(200, func() {
		r.Note(1000, trace.Wr(2, 5))
		r.Access(1000, trace.Wr(2, 5))
		r.Access(1001, trace.Rd(1, 5))
		r.Access(1002, trace.Rel(2, 3))
	})
	if avg != 0 {
		t.Errorf("steady-state Note/Access allocates %.2f allocs/op, want 0", avg)
	}
}

// TestAccessTables checks each provenance table, including the sparse
// token-variable overflow.
func TestAccessTables(t *testing.T) {
	r := NewRecorder(0)
	if r.Window() != DefaultWindow {
		t.Fatalf("default window = %d", r.Window())
	}
	r.Access(10, trace.Wr(1, 3))
	r.Access(11, trace.Rd(2, 3))
	r.Access(12, trace.Rel(1, 0))
	if a := r.LastWrite(3); !a.OK || a.Idx != 10 || a.Op.Thread != 1 {
		t.Errorf("LastWrite = %+v", a)
	}
	if a := r.LastRead(3, 2); !a.OK || a.Idx != 11 {
		t.Errorf("LastRead = %+v", a)
	}
	if a := r.LastRead(3, 1); a.OK {
		t.Errorf("thread 1 never read x3: %+v", a)
	}
	if a := r.LastRelease(0); !a.OK || a.Idx != 12 {
		t.Errorf("LastRelease = %+v", a)
	}
	// Token variables (≥ 2^24) go through the sparse overflow.
	tok := trace.Var(1<<24 + 4)
	r.Access(20, trace.Wr(1, tok))
	r.Access(21, trace.Rd(2, tok))
	if a := r.LastWrite(tok); !a.OK || a.Idx != 20 {
		t.Errorf("sparse LastWrite = %+v", a)
	}
	if a := r.LastRead(tok, 2); !a.OK || a.Idx != 21 {
		t.Errorf("sparse LastRead = %+v", a)
	}
	// A nil recorder (forensics off) answers empty everywhere.
	var nilRec *Recorder
	if nilRec.LastWrite(3).OK || nilRec.LastRead(3, 1).OK || nilRec.LastRelease(0).OK || nilRec.LastOf(1).OK {
		t.Error("nil recorder must report no accesses")
	}
	if nilRec.Recorded() != 0 || nilRec.ThreadWindow(0, trace.ProcessLabels()) != nil {
		t.Error("nil recorder must be empty")
	}
}

// TestConflictTarget covers variable, lock and token rendering.
func TestConflictTarget(t *testing.T) {
	cases := []struct {
		op   trace.Op
		want string
	}{
		{trace.Rd(1, 3), "x3"},
		{trace.Wr(2, 0), "x0"},
		{trace.Acq(1, 5), "m5"},
		{trace.Rel(1, 5), "m5"},
		{trace.Wr(1, trace.Var(1<<24+4)), "fork-token(t2)"},
		{trace.Rd(1, trace.Var(1<<24+5)), "join-token(t2)"},
		{trace.Beg(1, "m"), ""},
	}
	for _, c := range cases {
		if got := ConflictTarget(c.op); got != c.want {
			t.Errorf("ConflictTarget(%s) = %q, want %q", c.op, got, c.want)
		}
	}
}

// TestReportRoundTrip: the report survives a JSON round trip (the wire
// form velodromed uses) and the text rendering names the evidence.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		OpIndex:    42,
		Op:         "wr(2,x3)",
		Blamed:     "Set.add@17(t2)",
		Increasing: true,
		Refuted:    []string{"Set.add"},
		Txns: []Txn{
			{Name: "Set.add@17(t2)", Thread: 2, Label: "Set.add", Start: 17, End: -1, Blamed: true},
			{Name: "unary@30(t1)", Thread: 1, Start: 30, End: 31, Unary: true},
		},
		Edges: []Edge{
			{From: 0, To: 1, Kind: "conflict", Conflict: "x3",
				Tail: &AccessJSON{Index: 20, Op: "rd(2,x3)", Thread: 2},
				Head: AccessJSON{Index: 30, Op: "wr(1,x3)", Thread: 1}, TailTime: 2, HeadTime: 1},
			{From: 1, To: 0, Kind: "conflict", Conflict: "x3", Closing: true,
				Tail: &AccessJSON{Index: 30, Op: "wr(1,x3)", Thread: 1},
				Head: AccessJSON{Index: 42, Op: "wr(2,x3)", Thread: 2}, TailTime: 1, HeadTime: 5},
		},
		Threads: []ThreadWindow{
			{Thread: 1, Ops: []WindowOp{{Index: 30, Op: "wr(1,x3)"}}},
			{Thread: 2, Ops: []WindowOp{{Index: 20, Op: "rd(2,x3)"}, {Index: 42, Op: "wr(2,x3)"}}},
		},
	}
	data, err := rep.MarshalJSONLine()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := json.Marshal(rep)
	d2, _ := json.Marshal(back)
	if string(d1) != string(d2) {
		t.Errorf("round trip changed the report:\n%s\n%s", d1, d2)
	}
	if _, err := ParseReport([]byte("{")); err == nil {
		t.Error("malformed report must not parse")
	}

	text := rep.String()
	for _, want := range []string{
		"Set.add@17(t2) is not atomic",
		"op 42: wr(2,x3)",
		"refuted atomic blocks: Set.add",
		"ops 17.. (open)",
		"← blamed",
		"on x3: rd(2,x3)@20 ⇒ wr(1,x3)@30",
		"⇒(closing)",
		"flight recorder",
		"t2: rd(2,x3)@20 wr(2,x3)@42",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
	// No-blame reports render too.
	rep.Blamed = ""
	if s := rep.String(); !strings.Contains(s, "non-serializable cycle completed by op 42") {
		t.Errorf("blameless rendering:\n%s", s)
	}
}

// TestWindowDepth: windows deeper than the default are honored exactly.
func TestWindowDepth(t *testing.T) {
	r := NewRecorder(100)
	for i := 0; i < 250; i++ {
		r.Note(int64(i), trace.Rd(0, trace.Var(i%7)))
	}
	w := r.ThreadWindow(0, trace.ProcessLabels())
	if len(w) != 100 {
		t.Fatalf("window length %d, want 100", len(w))
	}
	if w[0].Index != 150 || w[99].Index != 249 {
		t.Errorf("window spans %d..%d, want 150..249", w[0].Index, w[99].Index)
	}
	if got := fmt.Sprintf("%d", r.Recorded()); got != "250" {
		t.Errorf("Recorded = %s", got)
	}
}

// TestRingEntryIsPointerFree: the flight recorder's per-thread rings are
// memory the collector never marks.
func TestRingEntryIsPointerFree(t *testing.T) {
	if err := layout.PointerFree(reflect.TypeOf(ringEntry{})); err != nil {
		t.Errorf("flight-recorder entry holds a pointer: %v", err)
	}
}
