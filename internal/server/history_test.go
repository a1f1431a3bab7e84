package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/store"
	"repro/internal/trace"
)

// TestHistoryRing covers the ring mechanics directly: fill past
// capacity, read newest-first with offsets, look up by id, and keep the
// ever-recorded total distinct from the retained count.
func TestHistoryRing(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 7; i++ {
		h.Add(SessionRecord{Session: fmt.Sprintf("s%d", i), Ops: int64(i)})
	}
	if h.Len() != 4 || h.Total() != 7 {
		t.Fatalf("len=%d total=%d, want 4 retained of 7", h.Len(), h.Total())
	}
	recent := h.Recent(10, 0)
	if len(recent) != 4 {
		t.Fatalf("Recent(10,0) returned %d records", len(recent))
	}
	for i, want := range []string{"s6", "s5", "s4", "s3"} {
		if recent[i].Session != want {
			t.Errorf("recent[%d] = %s, want %s", i, recent[i].Session, want)
		}
	}
	if page := h.Recent(2, 1); len(page) != 2 || page[0].Session != "s5" || page[1].Session != "s4" {
		t.Errorf("Recent(2,1) = %+v, want s5,s4", page)
	}
	if page := h.Recent(10, 10); len(page) != 0 {
		t.Errorf("offset past the ring returned %d records", len(page))
	}
	if rec, ok := h.Get("s5"); !ok || rec.Ops != 5 {
		t.Errorf("Get(s5) = %+v, %v", rec, ok)
	}
	if _, ok := h.Get("s0"); ok {
		t.Error("s0 was evicted but Get still finds it")
	}
	// A fresh ring answers empty, not nil-panics.
	if got := NewHistory(0).Recent(5, 0); len(got) != 0 {
		t.Errorf("empty history Recent = %+v", got)
	}
}

// TestSessionsAPI exercises the JSON API against a hand-filled history:
// envelope fields, pagination clamps, parameter validation, per-id
// lookup and the 404s.
func TestSessionsAPI(t *testing.T) {
	h := NewHistory(8)
	for i := 0; i < 12; i++ {
		h.Add(SessionRecord{Session: fmt.Sprintf("s%d", i), Status: trace.StatusOK, Ops: int64(10 * i)})
	}
	mux := http.NewServeMux()
	mux.Handle("/api/sessions/", h.APIHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	list := func(path string) sessionList {
		t.Helper()
		code, body := get(path)
		if code != 200 {
			t.Fatalf("GET %s: status %d\n%s", path, code, body)
		}
		var out sessionList
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, body)
		}
		return out
	}

	// The bare path (the mux 301-redirects /api/sessions to the subtree).
	for _, path := range []string{"/api/sessions", "/api/sessions/"} {
		got := list(path)
		if got.Total != 12 || got.Retained != 8 || got.Count != 8 {
			t.Errorf("%s: envelope %+v, want total=12 retained=8 count=8", path, got)
		}
		if got.Sessions[0].Session != "s11" {
			t.Errorf("%s: newest first violated: %s", path, got.Sessions[0].Session)
		}
	}
	if got := list("/api/sessions?limit=2&offset=1"); got.Count != 2 ||
		got.Sessions[0].Session != "s10" || got.Sessions[1].Session != "s9" {
		t.Errorf("limit=2 offset=1: %+v", got.Sessions)
	}
	// Out-of-range limits clamp instead of erroring.
	if got := list("/api/sessions?limit=0"); got.Count != 1 {
		t.Errorf("limit=0 should clamp to 1, got count %d", got.Count)
	}
	if got := list("/api/sessions?limit=999999"); got.Count != 8 {
		t.Errorf("huge limit should serve the whole ring, got count %d", got.Count)
	}
	// Malformed parameters are 400s with a JSON error body.
	for _, path := range []string{"/api/sessions?limit=abc", "/api/sessions?offset=-1", "/api/sessions?offset=x"} {
		code, body := get(path)
		if code != 400 {
			t.Errorf("%s: status %d, want 400", path, code)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %s", path, body)
		}
	}

	code, body := get("/api/sessions/s9")
	if code != 200 {
		t.Fatalf("per-id lookup: status %d", code)
	}
	var rec SessionRecord
	if err := json.Unmarshal(body, &rec); err != nil || rec.Ops != 90 {
		t.Errorf("per-id record %s: %v", body, err)
	}
	if code, _ := get("/api/sessions/s0"); code != 404 {
		t.Errorf("evicted session: status %d, want 404", code)
	}
	if code, _ := get("/api/sessions/s9/extra"); code != 404 {
		t.Errorf("nested path: status %d, want 404", code)
	}
}

// TestHistoryCursorPagination pins why the envelope hands back a seq
// cursor at all: an offset walk shifts when sessions complete between
// pages (showing duplicates), a ?before= walk does not.
func TestHistoryCursorPagination(t *testing.T) {
	h := NewHistory(32)
	for i := 0; i < 20; i++ {
		h.Add(SessionRecord{Session: fmt.Sprintf("s%d", i)})
	}
	srv := httptest.NewServer(h.APIHandler())
	defer srv.Close()

	list := func(path string) sessionList {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var out sessionList
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Walk the whole history by cursor, adding a new session after every
	// page to shift what an offset walk would see.
	seen := map[string]bool{}
	var pages int
	for cursor, more := uint64(0), true; more; pages++ {
		path := "/api/sessions?limit=6"
		if cursor != 0 {
			path += fmt.Sprintf("&before=%d", cursor)
		}
		page := list(path)
		for _, rec := range page.Sessions {
			if seen[rec.Session] {
				t.Fatalf("cursor walk served %s twice", rec.Session)
			}
			seen[rec.Session] = true
		}
		h.Add(SessionRecord{Session: fmt.Sprintf("late%d", pages)})
		if page.Next == 0 {
			more = false
		} else {
			cursor = page.Next
		}
		if pages > 20 {
			t.Fatal("cursor walk did not terminate")
		}
	}
	// Every session present before the walk started was served exactly
	// once, despite the adds between pages.
	for i := 0; i < 20; i++ {
		if !seen[fmt.Sprintf("s%d", i)] {
			t.Errorf("cursor walk missed s%d", i)
		}
	}

	// The final page of an exact-multiple walk omits the cursor: ask for
	// everything in one oversized page.
	if page := list("/api/sessions?limit=1000"); page.Next != 0 {
		t.Errorf("exhaustive page still carries next=%d", page.Next)
	}
	// Malformed and negative cursors are 400s.
	for _, q := range []string{"?before=-1", "?before=abc"} {
		resp, err := http.Get(srv.URL + "/api/sessions" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestHistoryFilters covers the tenant and time-range narrowing on both
// the Query method and the HTTP surface.
func TestHistoryFilters(t *testing.T) {
	h := NewHistory(32)
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		rec := SessionRecord{
			Session: fmt.Sprintf("s%d", i),
			Started: base.Add(time.Duration(i) * time.Minute),
		}
		if i%3 == 0 {
			rec.Tenant = "acme"
		}
		h.Add(rec)
	}

	if got := h.Query(100, 0, Filter{Tenant: "acme"}); len(got) != 4 {
		t.Errorf("tenant=acme matched %d records, want 4", len(got))
	}
	// Records without an explicit tenant belong to "default".
	if got := h.Query(100, 0, Filter{Tenant: DefaultTenant}); len(got) != 6 {
		t.Errorf("tenant=default matched %d records, want 6", len(got))
	}
	// since inclusive, until exclusive: minutes [2,5) → s2,s3,s4.
	got := h.Query(100, 0, Filter{Since: base.Add(2 * time.Minute), Until: base.Add(5 * time.Minute)})
	if len(got) != 3 || got[0].Session != "s4" || got[2].Session != "s2" {
		t.Errorf("time-range query = %+v", got)
	}

	srv := httptest.NewServer(h.APIHandler())
	defer srv.Close()
	check := func(query string, wantCount int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/sessions" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var page sessionList
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		if page.Count != wantCount {
			t.Errorf("GET %s: count %d, want %d", query, page.Count, wantCount)
		}
	}
	check("?tenant=acme", 4)
	check("?tenant=nobody", 0)
	check(fmt.Sprintf("?since=%d&until=%d",
		base.Add(2*time.Minute).Unix(), base.Add(5*time.Minute).Unix()), 3)
	check("?since="+base.Add(8*time.Minute).Format(time.RFC3339), 2)
	check("?tenant=acme&since="+base.Add(4*time.Minute).Format(time.RFC3339), 2)
	// Bad time syntax is a 400.
	resp, err := http.Get(srv.URL + "/api/sessions?since=yesterday")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("since=yesterday: status %d, want 400", resp.StatusCode)
	}
}

// TestHistoryBindStore is the durability round trip at the History
// layer: records written through one History come back in a second one
// bound to the same store, with the total and session-id high-water
// seeded so a restarted daemon neither repeats seqs nor reissues ids.
func TestHistoryBindStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistory(4)
	if err := h.BindStore(st); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		h.Add(SessionRecord{
			Session: fmt.Sprintf("s%d", i),
			Tenant:  "acme",
			Started: time.Date(2026, 8, 1, 0, 0, i, 0, time.UTC),
			Ops:     int64(i),
		})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2 := NewHistory(4)
	if err := h2.BindStore(st2); err != nil {
		t.Fatal(err)
	}
	if h2.Len() != 4 || h2.Total() != 7 {
		t.Fatalf("after rebind: len=%d total=%d, want 4 retained of 7", h2.Len(), h2.Total())
	}
	recent := h2.Recent(10, 0)
	for i, want := range []string{"s7", "s6", "s5", "s4"} {
		if recent[i].Session != want || recent[i].Tenant != "acme" {
			t.Errorf("recovered[%d] = %+v, want %s/acme", i, recent[i], want)
		}
	}
	if got := h2.MaxSessionNum(); got != 7 {
		t.Errorf("MaxSessionNum = %d, want 7", got)
	}
	// New sessions continue the seq line above everything recovered.
	h2.Add(SessionRecord{Session: "s8"})
	if got := h2.Recent(1, 0)[0].Seq; got != 8 {
		t.Errorf("post-recovery Add got seq %d, want 8", got)
	}
}

// TestHistoryPaginationRace hammers a small ring from concurrent Adds
// while readers walk ?before= cursor pages and drill into ids that may
// be evicted mid-walk (404s are expected, inconsistencies are not). The
// assertions that matter run under -race.
func TestHistoryPaginationRace(t *testing.T) {
	h := NewHistory(8)
	srv := httptest.NewServer(h.APIHandler())
	defer srv.Close()

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cursor := uint64(0)
				for page := 0; page < 4; page++ {
					path := "/api/sessions?limit=3"
					if cursor != 0 {
						path += fmt.Sprintf("&before=%d", cursor)
					}
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					var list sessionList
					err = json.NewDecoder(resp.Body).Decode(&list)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					// Within a page the seqs are strictly descending and all
					// below the cursor — wraparound must never interleave.
					last := cursor
					for _, rec := range list.Sessions {
						if last != 0 && rec.Seq >= last {
							t.Errorf("cursor %d page out of order: seq %d after %d", cursor, rec.Seq, last)
							return
						}
						last = rec.Seq
					}
					// Drill into one id from the page: 200 or an eviction 404,
					// nothing else.
					if len(list.Sessions) > 0 {
						id := list.Sessions[len(list.Sessions)-1].Session
						resp, err := http.Get(srv.URL + "/api/sessions/" + id)
						if err != nil {
							t.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != 200 && resp.StatusCode != 404 {
							t.Errorf("drill-down %s: status %d", id, resp.StatusCode)
							return
						}
					}
					if list.Next == 0 {
						break
					}
					cursor = list.Next
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				h.Add(SessionRecord{Session: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if h.Total() != 200 || h.Len() != 8 {
		t.Errorf("total=%d len=%d, want 200/8", h.Total(), h.Len())
	}
}

// TestServerHistorySpansAndTraceDir is the per-session observability
// round trip: a session checked with tracing on must (1) carry
// span_<stage>_ns metrics in its verdict, (2) land in the history with
// a span summary, and (3) leave a loadable Chrome trace-event file in
// the trace directory with the decode span nested under the session.
func TestServerHistorySpansAndTraceDir(t *testing.T) {
	dir := t.TempDir()
	s, addr, stop := startServer(t, Config{Metrics: obs.NewRegistry(), TraceDir: dir})
	defer stop()

	v, err := CheckReader(addr, trace.SessionHeader{Engine: "aerodrome", Name: "traced"},
		bytes.NewReader(encode(t, buggyTrace(), false)))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusOK || v.Serializable {
		t.Fatalf("verdict %+v, want non-serializable ok", v)
	}
	for _, key := range []string{"span_decode_ns", "span_graph_ns", "span_verdict_ns"} {
		if v.Metrics[key] <= 0 {
			t.Errorf("verdict metric %s = %d, want > 0 (metrics: %v)", key, v.Metrics[key], v.Metrics)
		}
	}

	rec, ok := s.History().Get(v.Session)
	if !ok {
		t.Fatalf("session %s not in history", v.Session)
	}
	if rec.Engine != "aerodrome" || rec.Serializable || rec.Ops != 5 || len(rec.Warnings) != 1 {
		t.Errorf("history record %+v", rec)
	}
	if strings.Contains(rec.Warnings[0], "\n") {
		t.Errorf("history warning digest must be one line: %q", rec.Warnings[0])
	}
	if rec.Spans == nil || rec.Spans.Stages["graph"].Ns <= 0 {
		t.Errorf("history record missing span summary: %+v", rec.Spans)
	}

	if rec.TraceFile == "" {
		t.Fatal("record has no trace file despite TraceDir")
	}
	data, err := os.ReadFile(rec.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := span.ValidateChrome(data); err != nil || n == 0 {
		t.Fatalf("trace file invalid (%d events): %v", n, err)
	}
	for _, nest := range [][2]string{{"session", ""}, {"decode", "session"}, {"verdict", "session"}} {
		if !span.FindSpan(data, nest[0], nest[1]) {
			t.Errorf("trace file missing %q under %q:\n%s", nest[0], nest[1], data)
		}
	}
}

// TestServerReportsDroppedSpans overfills the session's span buffer —
// every warning leaves a marker span, and this session has more warnings
// than a buffer holds spans — and checks that the loss reaches both
// operator surfaces: span_dropped in the verdict's metrics block and the
// session's /debug/velo page. A session that drops nothing carries no
// such key.
func TestServerReportsDroppedSpans(t *testing.T) {
	s, addr, stop := startServer(t, Config{MaxWarnings: 10})
	defer stop()
	web := httptest.NewServer(s.DebugHandler())
	defer web.Close()

	const warnings = 1<<16 + 1000 // span's per-buffer cap, and then some
	tr := trace.Trace{trace.Beg(1, "inc")}
	for i := 0; i < warnings; i++ {
		tr = append(tr, trace.Rd(1, 0), trace.Wr(2, 0), trace.Wr(1, 0))
	}
	tr = append(tr, trace.Fin(1))
	v, err := CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(encode(t, tr, true)))
	if err != nil || v.Status != trace.StatusOK || v.Serializable {
		t.Fatalf("verdict %+v, err %v", v, err)
	}
	dropped := v.Metrics["span_dropped"]
	if dropped < 1000 {
		t.Fatalf("span_dropped = %d in %v, want at least the %d markers past the cap", dropped, v.Metrics, 1000)
	}
	resp, err := http.Get(web.URL + "?session=" + v.Session)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("spans dropped: %d", dropped); !strings.Contains(string(page), want) {
		t.Errorf("session page lacks %q:\n%s", want, page)
	}

	v, err = CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(encode(t, buggyTrace(), true)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.Metrics["span_dropped"]; ok {
		t.Errorf("span_dropped present on a five-op session: %v", v.Metrics)
	}
}

// TestServerNoSpans checks the disabled path end to end: no span
// metrics in verdicts, no summaries in history, no trace files.
func TestServerNoSpans(t *testing.T) {
	s, addr, stop := startServer(t, Config{NoSpans: true})
	defer stop()
	v, err := CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(encode(t, cleanTrace(), true)))
	if err != nil || v.Status != trace.StatusOK {
		t.Fatalf("verdict %+v, err %v", v, err)
	}
	for key := range v.Metrics {
		if strings.HasPrefix(key, "span_") {
			t.Errorf("span metric %s present with spans disabled", key)
		}
	}
	rec, ok := s.History().Get(v.Session)
	if !ok {
		t.Fatal("session missing from history")
	}
	if rec.Spans != nil || rec.TraceFile != "" {
		t.Errorf("record carries tracing artifacts with spans disabled: %+v", rec)
	}
}

// TestHistoryAndDashboardConcurrent is the race exercise for the new
// surfaces: concurrent sessions write spans and history records while
// scrapers hammer /api/sessions (list and per-id) and /debug/velo
// (JSON, HTML, and the per-session drill-down). Run under -race.
func TestHistoryAndDashboardConcurrent(t *testing.T) {
	s, addr, stop := startServer(t, Config{MaxSessions: 32, Metrics: obs.NewRegistry(), HistorySize: 16})
	api := httptest.NewServer(s.History().APIHandler())
	defer api.Close()
	web := httptest.NewServer(s.DebugHandler())
	defer web.Close()

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(api.URL + "/api/sessions?limit=5")
				if err != nil {
					t.Errorf("GET /api/sessions: %v", err)
					return
				}
				var page sessionList
				json.NewDecoder(resp.Body).Decode(&page)
				resp.Body.Close()
				// Drill into whatever the page surfaced: per-id API and
				// the dashboard's session view, racing later evictions.
				for _, rec := range page.Sessions {
					for _, url := range []string{
						api.URL + "/api/sessions/" + rec.Session,
						web.URL + "?session=" + rec.Session,
					} {
						resp, err := http.Get(url)
						if err != nil {
							t.Errorf("GET %s: %v", url, err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
				resp, err = http.Get(web.URL) // dashboard HTML with recent table
				if err != nil {
					t.Errorf("GET dashboard: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	const sessions = 24
	var clients sync.WaitGroup
	for i := 0; i < sessions; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			body := cleanTrace()
			if i%2 == 0 {
				body = buggyTrace()
			}
			hdr := trace.SessionHeader{Name: fmt.Sprintf("h%d", i), Forensics: i%3 == 0}
			v, err := CheckReader(addr, hdr, bytes.NewReader(encode(t, body, i%2 == 1)))
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			if v.Status != trace.StatusOK {
				t.Errorf("session %d: verdict %+v", i, v)
			}
		}(i)
	}
	clients.Wait()
	close(done)
	scrapers.Wait()

	h := s.History()
	if h.Total() != sessions || h.Len() != 16 {
		t.Errorf("history total=%d len=%d, want %d/16", h.Total(), h.Len(), sessions)
	}
	for _, rec := range h.Recent(16, 0) {
		if rec.Spans == nil || rec.Spans.Stages["graph"].Ns <= 0 {
			t.Errorf("session %s retained without span summary: %+v", rec.Session, rec.Spans)
		}
	}
	// The dashboard's recent table names retained sessions.
	resp, err := http.Get(web.URL)
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	newest := h.Recent(1, 0)[0].Session
	if !strings.Contains(string(html), "?session="+newest) {
		t.Errorf("dashboard missing drill-down link for %s:\n%s", newest, html)
	}
	stop()
	// Draining must not lose the last verdicts from history.
	deadline := time.Now().Add(time.Second)
	for h.Total() != sessions && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}
