package span

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestFlushKeepsIdentity: spans keep their ids, parents and attributes
// in the export across Flush calls; open spans survive them.
func TestFlushKeepsIdentity(t *testing.T) {
	const n = 768
	tr := New()
	b := tr.Buffer("s")
	root := b.Start("session", 0)
	for i := 0; i < n; i++ {
		id := b.Start("batch", root)
		b.AttrInt(id, "i", int64(i))
		b.End(id)
		if i%256 == 255 {
			b.Flush()
		}
	}
	b.End(root)
	b.Flush()
	sum := tr.Summary()
	if want := int64(n + 1); sum.Spans != want {
		t.Fatalf("spans = %d, want %d", sum.Spans, want)
	}
	var out bytes.Buffer
	if err := tr.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	if got, err := ValidateChrome(out.Bytes()); err != nil || got != n+1 {
		t.Fatalf("validate: n=%d err=%v", got, err)
	}
	if !FindSpan(out.Bytes(), "batch", "session") {
		t.Error("batch spans lost their session parent nesting")
	}
	if !strings.Contains(out.String(), fmt.Sprintf(`"i":%d`, n-1)) {
		t.Error("the last batch span's attribute is missing from the export")
	}
}

// warningArgs stands in for a warning's mark attributes: SpanArgs runs
// only when the timeline is exported.
type warningArgs struct{ calls *int }

func (w warningArgs) SpanArgs(add func(string, any)) {
	*w.calls++
	add("op", int64(7))
	add("blamed", "inc@3(t1)")
}

// TestMarksTakeTheNextStamp: a mark reads no clock; it takes the time of
// the buffer's next Stamp, or Flush, and lands between the spans around
// it. Its attributes are asked for at export, not when it is recorded.
func TestMarksTakeTheNextStamp(t *testing.T) {
	tr := New()
	b := tr.Buffer("s")
	root := b.Start("session", 0)
	calls := 0
	b.End(b.Start("before", root))
	b.Mark("warning", warningArgs{&calls})
	at := Nanotime()
	b.Stamp(at)
	if m := b.marks[0]; m.at != at-tr.epoch {
		t.Errorf("stamped mark at %d, want %d", m.at, at-tr.epoch)
	}
	b.Mark("warning", nil)
	b.Flush()
	if m := b.marks[1]; m.at < at-tr.epoch {
		t.Errorf("flushed mark at %d, before the earlier stamp %d", m.at, at-tr.epoch)
	}
	b.End(root)
	if calls != 0 {
		t.Errorf("SpanArgs ran %d times before any export", calls)
	}
	if sum := tr.Summary(); sum.Spans != 4 {
		t.Errorf("spans = %d, want 4", sum.Spans)
	}
	var out bytes.Buffer
	if err := tr.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChrome(out.Bytes()); err != nil || n != 4 {
		t.Fatalf("validate: n=%d err=%v\n%s", n, err, out.String())
	}
	if calls != 1 || !strings.Contains(out.String(), `"blamed":"inc@3(t1)"`) || !strings.Contains(out.String(), `"op":7`) {
		t.Errorf("export (%d SpanArgs calls) lacks the mark's attributes:\n%s", calls, out.String())
	}
	if !FindSpan(out.Bytes(), "warning", "session") {
		t.Errorf("warning mark not inside the session span:\n%s", out.String())
	}
}

// TestReleaseRecyclesArenas: a released tracer's arena serves a later
// tracer, emptied: nothing the old spans named survives into it.
func TestReleaseRecyclesArenas(t *testing.T) {
	var got *arena
	for i := 0; i < 10 && got == nil; i++ { // a GC may empty the pool between the two calls
		tr := New()
		b := tr.Buffer("s")
		id := b.Start("session", 0)
		b.AttrStr(id, "session", "s1")
		b.End(id)
		b.Mark("warning", nil)
		old := b.arena
		tr.Release()
		if b2 := New().Buffer("s"); b2.arena == old {
			got = b2.arena
		}
	}
	if got == nil {
		t.Skip("the pool never returned the released arena")
	}
	if len(got.recs) != 0 || len(got.attrs) != 0 || len(got.marks) != 0 || got.attrs[:1][0].str != "" {
		t.Errorf("recycled arena not emptied: %d records, %d attributes, %d marks", len(got.recs), len(got.attrs), len(got.marks))
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
				b.StopTimer() // recycle the arena, as a daemon session does, so the cap never engages
				tr.Release()
				tr = New()
				buf = tr.Buffer("bench")
				b.StartTimer()
			}
		}
	})
	b.Run("mark", func(b *testing.B) {
		tr := New()
		buf := tr.Buffer("bench")
		args := warningArgs{new(int)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Mark("warning", args)
			if i%maxSpans == maxSpans-1 {
				b.StopTimer()
				tr.Release()
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
