package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/span"
)

// The benchmark's own tracing: internal/span used as a library, from the
// outside. Each client goroutine owns one lane (one span.Buf); every call
// into a layer is wrapped in a span whose parent is the call that caused
// it, so one session's spans hang off one root. Spans stay in memory and
// are written as Chrome trace-event JSON once the traced window is over.
// A nil *tracer hands out nil lanes, and a nil lane runs the wrapped
// function and nothing else, so the untraced run executes the same code.

type tracer struct {
	t    *span.Tracer
	mu   sync.Mutex
	self map[string]time.Duration // span name → self time, summed over lanes
}

func newTracer() *tracer {
	return &tracer{t: span.New(), self: map[string]time.Duration{}}
}

// lane is one goroutine's span buffer plus the open-span stack that lets
// a span's self time be its duration minus its children's.
type lane struct {
	tr    *tracer
	buf   *span.Buf
	stack []frame
}

type frame struct {
	id       span.SpanID
	children time.Duration
}

func (tr *tracer) lane(name string) *lane {
	if tr == nil {
		return nil
	}
	return &lane{tr: tr, buf: tr.t.Buffer(name)}
}

// span runs fn inside a span called name, child of the lane's innermost
// open span.
func (l *lane) span(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	var parent span.SpanID
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].id
	}
	id := l.buf.Start(name, parent)
	l.stack = append(l.stack, frame{id: id})
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.buf.End(id)
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	if n := len(l.stack); n > 0 {
		l.stack[n-1].children += d
	}
	l.tr.mu.Lock()
	l.tr.self[name] += d - top.children
	l.tr.mu.Unlock()
}

// done flushes the lane's spans to the tracer; the owner calls it when it
// stops recording.
func (l *lane) done() {
	if l != nil {
		l.buf.Flush()
	}
}

// selfMs returns each span name's self time in milliseconds.
func (tr *tracer) selfMs() map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[string]float64, len(tr.self))
	for name, d := range tr.self {
		out[name] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// write stores the timeline as <dir>/trace-<workload>.json and returns
// the path.
func (tr *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, tr.t.WriteChromeFile(path)
}
