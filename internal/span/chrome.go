package span

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome trace-event export: the tracer's spans rendered as the JSON
// event format understood by chrome://tracing, Perfetto's legacy
// importer, and speedscope. Each span becomes a matched B/E ("duration
// begin/end") pair on its buffer's track; buffers are threads of one
// synthetic process. Events are emitted in globally non-decreasing
// timestamp order with per-track begin/end properly nested, which is
// exactly what ValidateChrome (and the CI artifact check) verifies.

// chromeEvent is one trace event. Ts and Dur are microseconds (the
// format's unit); fractional values carry the nanosecond precision.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

func idString(id SpanID) string {
	buf, idx := id.split()
	return fmt.Sprintf("b%d.%d", buf, idx)
}

// spanRec is one span as the export writes it.
type spanRec struct {
	name       string
	start, end int64
	buf        int32
	args       map[string]any
}

// gather snapshots every span, completed or still open (closed at "now"
// and marked unfinished), and every mark, with their attributes. Callers
// must have quiesced the buffer owners; the tracer mutex orders the reads.
func (t *Tracer) gather() ([]spanRec, []*Buf) {
	now := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []spanRec
	for _, b := range t.bufs {
		attrs := map[int32][]attr{}
		for _, a := range b.attrs {
			attrs[a.span] = append(attrs[a.span], a)
		}
		for i, r := range b.recs {
			args := map[string]any{"id": idString(makeID(b.id, i))}
			if r.parent != 0 {
				args["parent"] = idString(r.parent)
			}
			for _, a := range attrs[int32(i)] {
				args[a.key] = a.value()
			}
			if r.end == 0 {
				r.end = now
				if r.nattrs < maxAttrs {
					args["unfinished"] = int64(1)
				}
			}
			all = append(all, spanRec{name: r.name, start: r.start, end: r.end, buf: b.id, args: args})
		}
		for i, m := range b.marks {
			args := map[string]any{"id": idString(makeID(b.id, len(b.recs)+i))}
			if m.args != nil {
				m.args.SpanArgs(func(key string, val any) { args[key] = val })
			}
			if m.at == unstamped { // its owner never stamped it
				m.at = now
			}
			all = append(all, spanRec{name: m.name, start: m.at, end: m.at + 1, buf: b.id, args: args})
		}
	}
	return all, append([]*Buf(nil), t.bufs...)
}

// WriteChrome renders the tracer's spans as Chrome trace-event JSON.
// Call it after the buffer owners have quiesced. A nil tracer writes an
// empty (but valid) trace.
func (t *Tracer) WriteChrome(w io.Writer) error {
	file := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	if t != nil {
		recs, bufs := t.gather()

		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "velodrome"},
		})
		for _, b := range bufs {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: int(b.id),
				Args: map[string]any{"name": b.name},
			})
		}

		// Per track: order spans (start asc, end desc) and linearize with
		// a stack so begins and ends interleave as a properly nested
		// sequence even for synthesized, back-dated spans.
		byBuf := map[int32][]int{}
		for i := range recs {
			byBuf[recs[i].buf] = append(byBuf[recs[i].buf], i)
		}
		var events []chromeEvent
		for _, b := range bufs {
			idxs := byBuf[b.id]
			sort.SliceStable(idxs, func(a, c int) bool {
				ra, rc := &recs[idxs[a]], &recs[idxs[c]]
				if ra.start != rc.start {
					return ra.start < rc.start
				}
				return ra.end > rc.end
			})
			type open struct {
				name string
				end  int64
			}
			var stack []open
			pop := func() {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				events = append(events, chromeEvent{Name: top.name, Ph: "E", Ts: usec(top.end), Pid: 1, Tid: int(b.id)})
			}
			for _, ri := range idxs {
				r := &recs[ri]
				for len(stack) > 0 && stack[len(stack)-1].end <= r.start {
					pop()
				}
				end := r.end
				if len(stack) > 0 && end > stack[len(stack)-1].end {
					// A child that outlives its parent would unbalance the
					// nesting; clamp defensively (single-owner discipline
					// makes this unreachable in practice).
					end = stack[len(stack)-1].end
				}
				events = append(events, chromeEvent{
					Name: r.name, Ph: "B", Ts: usec(r.start), Pid: 1, Tid: int(b.id),
					Args: r.args,
				})
				stack = append(stack, open{name: r.name, end: end})
			}
			for len(stack) > 0 {
				pop()
			}
		}
		// Merge tracks into one globally non-decreasing stream; stability
		// preserves each track's internal begin/end order at equal stamps.
		sort.SliceStable(events, func(a, c int) bool { return events[a].Ts < events[c].Ts })
		file.TraceEvents = append(file.TraceEvents, events...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&file)
}

// WriteChromeFile writes WriteChrome output to path (0644).
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateChrome checks data against the Chrome trace-event schema as
// this package (and the CI artifact step) relies on it: well-formed
// JSON in either the object or bare-array form, a known phase on every
// event, globally non-decreasing timestamps over duration events, and
// per-(pid,tid) begin/end pairs that match up and nest. It returns the
// number of B/E span pairs alongside the first violation found.
func ValidateChrome(data []byte) (spans int, err error) {
	var file chromeFile
	if err := json.Unmarshal(data, &file); err != nil {
		var bare []chromeEvent
		if err2 := json.Unmarshal(data, &bare); err2 != nil {
			return 0, fmt.Errorf("span: trace is neither a trace-event object nor an event array: %v", err)
		}
		file.TraceEvents = bare
	}
	type track struct{ pid, tid int }
	type frame struct {
		name string
		ts   float64
	}
	stacks := map[track][]frame{}
	lastTs := -1.0
	for i, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			continue // metadata carries no timeline constraints
		case "B", "E", "X", "i", "I":
		default:
			return spans, fmt.Errorf("span: event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Ts < lastTs {
			return spans, fmt.Errorf("span: event %d (%s %q): ts %.3f < previous %.3f — not monotonic",
				i, ev.Ph, ev.Name, ev.Ts, lastTs)
		}
		lastTs = ev.Ts
		k := track{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "B":
			if ev.Name == "" {
				return spans, fmt.Errorf("span: event %d: B event without a name", i)
			}
			stacks[k] = append(stacks[k], frame{ev.Name, ev.Ts})
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return spans, fmt.Errorf("span: event %d: E with no matching B on pid=%d tid=%d", i, ev.Pid, ev.Tid)
			}
			top := st[len(st)-1]
			if ev.Name != "" && ev.Name != top.name {
				return spans, fmt.Errorf("span: event %d: E %q closes B %q on pid=%d tid=%d", i, ev.Name, top.name, ev.Pid, ev.Tid)
			}
			if ev.Ts < top.ts {
				return spans, fmt.Errorf("span: event %d: E at %.3f before its B at %.3f", i, ev.Ts, top.ts)
			}
			stacks[k] = st[:len(st)-1]
			spans++
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return spans, fmt.Errorf("span: %d unmatched B event(s) on pid=%d tid=%d (first: %q)",
				len(st), k.pid, k.tid, st[0].name)
		}
	}
	return spans, nil
}

// FindSpan reports whether the serialized trace contains a B event with
// the given name; when parentName is non-empty the event must be a child
// of a span of that name — either nested inside it on the same track, or
// linked to it across tracks through the exported parent/id args (how a
// decode-buffer span points at the session root). Test helper for
// asserting nesting like decode→filter→graph without re-parsing.
func FindSpan(data []byte, name, parentName string) bool {
	var file chromeFile
	if json.Unmarshal(data, &file) != nil {
		return false
	}
	names := map[string]string{} // span id → name, from the exported args
	for _, ev := range file.TraceEvents {
		if ev.Ph != "B" {
			continue
		}
		if id, ok := ev.Args["id"].(string); ok {
			names[id] = ev.Name
		}
	}
	type track struct{ pid, tid int }
	open := map[track]map[string]int{}
	for _, ev := range file.TraceEvents {
		k := track{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "B":
			if ev.Name == name {
				if parentName == "" || open[k][parentName] > 0 {
					return true
				}
				if id, ok := ev.Args["parent"].(string); ok && names[id] == parentName {
					return true
				}
			}
			if open[k] == nil {
				open[k] = map[string]int{}
			}
			open[k][ev.Name]++
		case "E":
			if ev.Name != "" && open[k][ev.Name] > 0 {
				open[k][ev.Name]--
			}
		}
	}
	return false
}
