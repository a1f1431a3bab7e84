package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsInert: the zero-overhead contract's API half — every
// method on a nil tracer and nil buffer is a no-op that never panics.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Now() != 0 {
		t.Error("nil tracer Now != 0")
	}
	b := tr.Buffer("x")
	if b != nil {
		t.Fatal("nil tracer returned a non-nil buffer")
	}
	id := b.Start("s", 0)
	if id != 0 {
		t.Errorf("nil buf Start = %d, want 0", id)
	}
	b.AttrInt(id, "k", 1)
	b.AttrStr(id, "k", "v")
	b.End(id)
	b.AddStage(StageGraph, 5)
	b.Flush()
	b.Emit("x", 0, 1, 2)
	b.EmitStages(0, 0, 10, nil, StageFilter)
	if s := tr.Summary(); s != nil {
		t.Errorf("nil tracer Summary = %+v, want nil", s)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("nil-tracer chrome output invalid: %v", err)
	}
}

func TestSpansNestAndExport(t *testing.T) {
	tr := New()
	b := tr.Buffer("session")
	root := b.Start("session", 0)
	b.AttrStr(root, "engine", "optimized")
	dec := b.Start("decode", root)
	time.Sleep(time.Millisecond)
	b.AttrInt(dec, "ops", 42)
	b.End(dec)
	chk := b.Start("check", root)
	b.AddStage(StageFilter, int64(400*time.Microsecond))
	b.AddStage(StageGraph, int64(300*time.Microsecond))
	time.Sleep(time.Millisecond)
	b.End(chk)
	ck := b.rec(chk)
	b.EmitStages(chk, ck.start, ck.end, nil, StageFilter, StageGraph)
	b.End(root)
	b.Flush()

	sum := tr.Summary()
	if sum.StageNs(StageFilter) != int64(400*time.Microsecond) {
		t.Errorf("filter ns = %d", sum.StageNs(StageFilter))
	}
	if sum.Spans != 5 {
		t.Errorf("spans = %d, want 5", sum.Spans)
	}

	var out bytes.Buffer
	if err := tr.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChrome(out.Bytes())
	if err != nil {
		t.Fatalf("invalid chrome trace: %v\n%s", err, out.String())
	}
	if n != 5 {
		t.Errorf("validated %d spans, want 5", n)
	}
	for _, want := range [][2]string{
		{"decode", "session"},
		{"check", "session"},
		{"filter", "check"},
		{"graph", "check"},
	} {
		if !FindSpan(out.Bytes(), want[0], want[1]) {
			t.Errorf("span %q not nested under %q:\n%s", want[0], want[1], out.String())
		}
	}
	if FindSpan(out.Bytes(), "filter", "decode") {
		t.Error("filter reported nested under decode")
	}
	if !strings.Contains(out.String(), `"engine":"optimized"`) {
		t.Error("string attr missing from export")
	}
	if !strings.Contains(out.String(), `"ops":42`) {
		t.Error("int attr missing from export")
	}
}

// TestUnfinishedSpanIsClosedAtExport: an export taken while a span is
// still open (e.g. a crash-time dump) closes it at "now" and marks it.
func TestUnfinishedSpanIsClosedAtExport(t *testing.T) {
	tr := New()
	b := tr.Buffer("s")
	b.Start("session", 0)
	var out bytes.Buffer
	if err := tr.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(out.Bytes()); err != nil {
		t.Fatalf("invalid: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `"unfinished":1`) {
		t.Errorf("missing unfinished marker:\n%s", out.String())
	}
}

// TestFlushKeepsIdentity: spans flushed mid-run keep their ids, parents
// and attributes in the export; open spans survive arena flushing.
func TestFlushKeepsIdentity(t *testing.T) {
	tr := New()
	b := tr.Buffer("s")
	root := b.Start("session", 0)
	for i := 0; i < 3*flushEvery; i++ {
		id := b.Start("batch", root)
		b.AttrInt(id, "i", int64(i))
		b.End(id)
	}
	b.End(root)
	b.Flush()
	sum := tr.Summary()
	if want := int64(3*flushEvery + 1); sum.Spans != want {
		t.Fatalf("spans = %d, want %d", sum.Spans, want)
	}
	var out bytes.Buffer
	if err := tr.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChrome(out.Bytes()); err != nil || n != 3*flushEvery+1 {
		t.Fatalf("validate: n=%d err=%v", n, err)
	}
	if !FindSpan(out.Bytes(), "batch", "session") {
		t.Error("flushed batch spans lost their session parent nesting")
	}
}

// TestArenaCapDrops: past maxSpans, Start degrades to dropping spans
// (and counting them) instead of growing without bound.
func TestArenaCapDrops(t *testing.T) {
	tr := New()
	b := tr.Buffer("s")
	for i := 0; i < maxSpans+10; i++ {
		b.End(b.Start("x", 0))
	}
	b.AddStage(StageDecode, 7) // accumulators keep working past the cap
	b.Flush()
	sum := tr.Summary()
	if sum.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", sum.Dropped)
	}
	if sum.Spans != maxSpans {
		t.Errorf("spans = %d, want %d", sum.Spans, maxSpans)
	}
	if sum.StageNs(StageDecode) != 7 {
		t.Errorf("stage accumulator lost past the cap")
	}
}

// TestConcurrentBuffers: one buffer per goroutine writing concurrently,
// flushing into the shared tracer — the -race guard for the lock-free
// single-owner design.
func TestConcurrentBuffers(t *testing.T) {
	tr := New()
	const workers = 8
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		b := tr.Buffer("w")
		go func(b *Buf) {
			defer func() { done <- struct{}{} }()
			root := b.Start("worker", 0)
			for i := 0; i < 2000; i++ {
				id := b.Start("op", root)
				b.AddStage(StageGraph, 3)
				b.End(id)
			}
			b.End(root)
			b.Flush()
		}(b)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	sum := tr.Summary()
	if want := int64(workers * 2001); sum.Spans != want {
		t.Errorf("spans = %d, want %d", sum.Spans, want)
	}
	if want := int64(workers * 2000 * 3); sum.StageNs(StageGraph) != want {
		t.Errorf("graph ns = %d, want %d", sum.StageNs(StageGraph), want)
	}
	var out bytes.Buffer
	if err := tr.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(out.Bytes()); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents": [`,
		"unknown phase": `{"traceEvents":[{"ph":"Z","ts":1,"pid":1,"tid":1}]}`,
		"unmatched B":   `{"traceEvents":[{"ph":"B","name":"a","ts":1,"pid":1,"tid":1}]}`,
		"stray E":       `{"traceEvents":[{"ph":"E","ts":1,"pid":1,"tid":1}]}`,
		"non-monotonic": `{"traceEvents":[{"ph":"B","name":"a","ts":5,"pid":1,"tid":1},{"ph":"E","ts":2,"pid":1,"tid":1}]}`,
		"cross-closing": `{"traceEvents":[{"ph":"B","name":"a","ts":1,"pid":1,"tid":1},{"ph":"E","name":"b","ts":2,"pid":1,"tid":1}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The bare-array form is accepted.
	ok := `[{"ph":"B","name":"a","ts":1,"pid":1,"tid":1},{"ph":"E","name":"a","ts":2,"pid":1,"tid":1}]`
	if n, err := ValidateChrome([]byte(ok)); err != nil || n != 1 {
		t.Errorf("bare array: n=%d err=%v", n, err)
	}
}

func TestSummaryJSONShape(t *testing.T) {
	tr := New()
	b := tr.Buffer("s")
	b.AddStage(StageDecode, 1000)
	b.AddStage(StageDecode, 500)
	data, err := json.Marshal(tr.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"decode":{"count":2,"ns":1500}`) {
		t.Errorf("summary JSON: %s", data)
	}
}

// TestStageNames pins the stage vocabulary: every consumer (/metrics,
// verdict span_*_ns keys, /api/sessions, /debug/velo) keys stages by
// these names, in this order.
func TestStageNames(t *testing.T) {
	want := []string{"header", "decode", "filter", "graph", "forensics", "verdict"}
	var got []string
	for s := Stage(0); s < NumStages; s++ {
		got = append(got, s.String())
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("stages = %v, want %v", got, want)
	}
	if s := NumStages.String(); s != "unknown" {
		t.Errorf("NumStages.String() = %q, want unknown", s)
	}
}

// BenchmarkSpan backs the EXPERIMENTS.md tracing-overhead table.
func BenchmarkSpan(b *testing.B) {
	b.Run("start-end", func(b *testing.B) {
		tr := New()
		buf := tr.Buffer("bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.End(buf.Start("op", 0))
			if i%maxSpans == maxSpans-1 {
				b.StopTimer() // reset the arena so the cap never engages
				tr = New()
				buf = tr.Buffer("bench")
				b.StartTimer()
			}
		}
	})
	b.Run("add-stage", func(b *testing.B) {
		tr := New()
		buf := tr.Buffer("bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.AddStage(StageGraph, 10)
		}
	})
	b.Run("nil-buf", func(b *testing.B) {
		var buf *Buf
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.AddStage(StageGraph, 10)
		}
	})
}
