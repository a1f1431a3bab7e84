package server

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dot"
	"repro/internal/forensic"
	"repro/internal/span"
	"repro/internal/trace"
)

// DebugState is the full /debug/velo document.
type DebugState struct {
	Active      int  `json:"active"`
	MaxSessions int  `json:"maxSessions"`
	Draining    bool `json:"draining"`
	// TenantFilter echoes the ?tenant= query when the view is scoped to
	// one tenant.
	TenantFilter string `json:"tenantFilter,omitempty"`
	// Sessions are the active sessions' records as of their last batch
	// (Status is empty while a session runs).
	Sessions []SessionRecord `json:"sessions"`
	// Recent is the completed-session history (newest first), the same
	// records /api/sessions serves.
	Recent []SessionRecord `json:"recent,omitempty"`
}

// publish stores a copy of a running session's record for the live
// listing. The copies share rec.Warnings' backing array; that is
// race-free because the session only appends past every length it has
// published.
func publish(live *atomic.Pointer[SessionRecord], rec *SessionRecord) {
	pub := *rec
	live.Store(&pub)
}

// DebugState snapshots the active sessions.
func (s *Server) DebugState() DebugState { return s.debugState("") }

// debugState snapshots the active sessions, optionally scoped to one
// tenant (the per-tenant dashboard view).
func (s *Server) debugState(tenantFilter string) DebugState {
	st := DebugState{MaxSessions: s.cfg.MaxSessions, TenantFilter: tenantFilter}
	s.mu.Lock()
	st.Draining = s.draining
	s.mu.Unlock()
	s.active.Range(func(_, v any) bool {
		if rec := v.(*atomic.Pointer[SessionRecord]).Load(); tenantFilter == "" || rec.tenantName() == tenantFilter {
			st.Sessions = append(st.Sessions, *rec)
		}
		return true
	})
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].Session < st.Sessions[j].Session })
	st.Active = len(st.Sessions)
	st.Recent = s.hist.Query(debugRecent, 0, Filter{Tenant: tenantFilter})
	return st
}

// debugRecent is how many completed sessions the dashboard shows; the
// full ring is available under /api/sessions.
const debugRecent = 20

// DebugHandler serves the /debug/velo dashboard: JSON under
// ?format=json (or an Accept: application/json header), HTML otherwise.
// The HTML view lists active sessions live, recently completed sessions
// with per-stage latency bars from their span summaries, and — under
// ?session=<id> — one session's drill-down with its warnings and the
// DOT provenance of each forensic report rendered inline. Mount it on
// the daemon's metrics mux as /debug/velo.
func (s *Server) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		state := s.debugState(req.URL.Query().Get("tenant"))
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(state)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if id := req.URL.Query().Get("session"); id != "" {
			s.writeSessionPage(w, id)
			return
		}
		fmt.Fprint(w, debugCSS)
		fmt.Fprintf(w, `<h1>velodromed sessions</h1>
<p>%d active / %d max`, state.Active, state.MaxSessions)
		if state.Draining {
			fmt.Fprint(w, " (draining)")
		}
		if state.TenantFilter != "" {
			fmt.Fprintf(w, ` — tenant <b>%s</b> (<a href="/debug/velo">all</a>)`,
				html.EscapeString(state.TenantFilter))
		}
		fmt.Fprint(w, ` — <a href="/debug/velo?format=json">JSON</a> · <a href="/api/sessions">/api/sessions</a></p>`+"\n")
		if names := s.tenants.TenantNames(); len(names) > 1 {
			fmt.Fprint(w, "<p>tenants:")
			for _, name := range names {
				fmt.Fprintf(w, ` <a href="/debug/velo?tenant=%s">%s</a>`,
					url.QueryEscape(name), html.EscapeString(name))
			}
			fmt.Fprint(w, "</p>\n")
		}
		fmt.Fprint(w, `<h2>active</h2>
<table border="1" cellpadding="4">
<tr><th>session</th><th>tenant</th><th>remote</th><th>engine</th><th>age</th><th>ops</th><th>filter hit</th><th>nodes</th><th>edges</th><th>warnings</th><th>last warning</th></tr>
`)
		for _, rec := range state.Sessions {
			engine := rec.Engine
			if rec.Forensics {
				engine += " +forensics"
			}
			var hit float64
			if rec.Ops > 0 {
				hit = float64(rec.Filtered) / float64(rec.Ops)
			}
			var last string
			if n := len(rec.Warnings); n > 0 {
				last = rec.Warnings[n-1]
			}
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%.1fs</td><td>%d</td><td>%.1f%%</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td></tr>\n",
				html.EscapeString(rec.Session), html.EscapeString(rec.tenantName()),
				html.EscapeString(rec.Remote), html.EscapeString(engine),
				time.Since(rec.Started).Seconds(), rec.Ops, 100*hit,
				rec.GraphNodes, rec.GraphEdges, len(rec.Warnings), html.EscapeString(last))
		}
		fmt.Fprint(w, "</table>\n<h2>recent</h2>\n")
		if len(state.Recent) == 0 {
			fmt.Fprint(w, "<p>no completed sessions yet</p>\n")
		} else {
			fmt.Fprint(w, `<table border="1" cellpadding="4">
<tr><th>session</th><th>tenant</th><th>engine</th><th>status</th><th>verdict</th><th>ops</th><th>duration</th><th>stages</th><th>warnings</th></tr>
`)
			for _, rec := range state.Recent {
				verdict := "—"
				if rec.Status == trace.StatusOK {
					if rec.Serializable {
						verdict = "serializable"
					} else {
						verdict = "NOT serializable"
					}
				}
				fmt.Fprintf(w, `<tr><td><a href="/debug/velo?session=%s">%s</a></td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%dms</td><td>%s</td><td>%d</td></tr>`+"\n",
					url.QueryEscape(rec.Session), html.EscapeString(rec.Session),
					html.EscapeString(rec.tenantName()),
					html.EscapeString(rec.Engine), html.EscapeString(rec.Status), verdict,
					rec.Ops, rec.DurationMs, stageBar(rec.Spans), len(rec.Warnings))
			}
			fmt.Fprint(w, "</table>\n")
		}
		fmt.Fprint(w, "</body></html>\n")
	})
}

// debugCSS opens every dashboard page: the stage-bar palette matches the
// legend order decode/filter/graph/forensics/other.
const debugCSS = `<html><head><style>
body { font-family: sans-serif; margin: 1.5em; }
table { border-collapse: collapse; }
.bar { display: inline-flex; width: 160px; height: 12px; background: #eee; vertical-align: middle; }
.bar span { display: inline-block; height: 100%; }
.st-decode { background: #4c78a8; } .st-filter { background: #f58518; }
.st-graph { background: #54a24b; } .st-forensics { background: #b279a2; }
.st-other { background: #bbb; }
pre { background: #f6f6f6; padding: 0.8em; overflow-x: auto; }
</style></head><body>`

// stageBar renders a session's span summary as one proportional bar.
func stageBar(sum *span.Summary) string {
	if sum == nil || len(sum.Stages) == 0 {
		return ""
	}
	type seg struct {
		class string
		ns    int64
	}
	segs := []seg{
		{"st-decode", sum.StageNs(span.StageDecode)},
		{"st-filter", sum.StageNs(span.StageFilter)},
		{"st-graph", sum.StageNs(span.StageGraph)},
		{"st-forensics", sum.StageNs(span.StageForensics)},
		{"st-other", sum.StageNs(span.StageHeader) + sum.StageNs(span.StageVerdict)},
	}
	var total int64
	for _, sg := range segs {
		total += sg.ns
	}
	if total == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(`<span class="bar">`)
	for _, sg := range segs {
		if sg.ns == 0 {
			continue
		}
		pct := 100 * float64(sg.ns) / float64(total)
		name := strings.TrimPrefix(sg.class, "st-")
		fmt.Fprintf(&b, `<span class=%q style="width:%.1f%%" title="%s %.2fms"></span>`,
			sg.class, pct, name, float64(sg.ns)/1e6)
	}
	b.WriteString(`</span>`)
	return b.String()
}

// writeSessionPage renders one completed session's drill-down.
func (s *Server) writeSessionPage(w http.ResponseWriter, id string) {
	rec, ok := s.hist.Get(id)
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, debugCSS)
		fmt.Fprintf(w, `<h1>session %s</h1><p>not in history (completed sessions are retained in a bounded ring) — <a href="/debug/velo">back</a></p></body></html>`,
			html.EscapeString(id))
		return
	}
	fmt.Fprint(w, debugCSS)
	verdict := rec.Status
	if rec.Status == trace.StatusOK {
		if rec.Serializable {
			verdict = "serializable"
		} else {
			verdict = "NOT serializable"
		}
	}
	fmt.Fprintf(w, `<h1>session %s</h1>
<p><a href="/debug/velo">back</a> · <a href="/api/sessions/%s">JSON</a></p>
<table border="1" cellpadding="4">
<tr><th>tenant</th><td>%s</td></tr>
<tr><th>engine</th><td>%s</td></tr>
<tr><th>verdict</th><td>%s</td></tr>
<tr><th>ops</th><td>%d (%d filtered)</td></tr>
<tr><th>graph</th><td>%d nodes, %d edges</td></tr>
<tr><th>started</th><td>%s</td></tr>
<tr><th>duration</th><td>%dms</td></tr>
`,
		html.EscapeString(rec.Session), url.QueryEscape(rec.Session),
		html.EscapeString(rec.tenantName()),
		html.EscapeString(rec.Engine), verdict,
		rec.Ops, rec.Filtered, rec.GraphNodes, rec.GraphEdges,
		rec.Started.Format(time.RFC3339), rec.DurationMs)
	if rec.Error != "" {
		fmt.Fprintf(w, "<tr><th>error</th><td>%s</td></tr>\n", html.EscapeString(rec.Error))
	}
	if rec.TraceFile != "" {
		fmt.Fprintf(w, "<tr><th>trace file</th><td>%s</td></tr>\n", html.EscapeString(rec.TraceFile))
	}
	fmt.Fprint(w, "</table>\n")

	if rec.Spans != nil && len(rec.Spans.Stages) > 0 {
		fmt.Fprintf(w, "<h2>stages</h2>\n<p>%s</p>\n<table border=\"1\" cellpadding=\"4\">\n<tr><th>stage</th><th>hits</th><th>time</th></tr>\n", stageBar(rec.Spans))
		for st := span.Stage(0); st < span.NumStages; st++ {
			m, ok := rec.Spans.Stages[st.String()]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%.3fms</td></tr>\n", st, m.Count, float64(m.Ns)/1e6)
		}
		fmt.Fprint(w, "</table>\n<p>filter and graph are estimates from a sample of the operations; the other stages are exact.</p>\n")
	}
	if rec.Spans != nil && rec.Spans.Dropped > 0 {
		fmt.Fprintf(w, "<p>spans dropped: %d (over the per-buffer cap; the timeline has holes, the stage totals do not)</p>\n", rec.Spans.Dropped)
	}

	if len(rec.Warnings) > 0 {
		fmt.Fprint(w, "<h2>warnings</h2>\n<ol>\n")
		for _, warn := range rec.Warnings {
			fmt.Fprintf(w, "<li>%s</li>\n", html.EscapeString(warn))
		}
		fmt.Fprint(w, "</ol>\n")
	}
	for i, raw := range rec.Reports {
		rep, err := forensic.ParseReport(raw)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "<h2>provenance %d</h2>\n<pre>%s</pre>\n", i+1,
			html.EscapeString(dot.RenderReport(rep)))
	}
	fmt.Fprint(w, "</body></html>\n")
}
