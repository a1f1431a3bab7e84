package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func TestHandlerMetricsAndPprof(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("rr_events_total").Add(42)
	r.Histogram(`velodrome_step_ns{kind="rd"}`).Observe(150)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "rr_events_total 42") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	if !strings.Contains(body, `velodrome_step_ns_bucket{kind="rd",le=`) {
		t.Errorf("/metrics missing histogram buckets:\n%s", body)
	}

	code, body = get("/metrics?format=json")
	if code != 200 {
		t.Fatalf("/metrics?format=json: %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON metrics: %v", err)
	}
	if snap.Counters["rr_events_total"] != 42 {
		t.Errorf("JSON counters: %+v", snap.Counters)
	}

	if code, body = get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d", code)
	}
	if code, _ = get("/"); code != 200 {
		t.Errorf("index: %d", code)
	}
	if code, _ = get("/nope"); code != 404 {
		t.Errorf("unknown path: %d, want 404", code)
	}
}

// TestHandlerBuildInfo checks the self-identification series every
// metrics endpoint must expose: the velo_build_info info-gauge with its
// version/goversion/engines labels, and the process start time. The
// commands register them with the engine registry's names before they
// serve (internal/cli); the test does the same.
func TestHandlerBuildInfo(t *testing.T) {
	r := obs.NewRegistry()
	obs.RegisterBuildInfo(r, "optimized,basic,aerodrome")
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`velo_build_info{`, `goversion="go`, `engines="optimized,basic,aerodrome"`, `version="`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	re := regexp.MustCompile(`(?m)^velo_build_info\{[^}]*\} 1$`)
	if !re.Match(body) {
		t.Errorf("velo_build_info must be an info gauge with value 1:\n%s", body)
	}
	re = regexp.MustCompile(`(?m)^velo_process_start_time_seconds (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("velo_process_start_time_seconds missing:\n%s", body)
	}
	start, _ := strconv.ParseInt(string(m[1]), 10, 64)
	now := time.Now().Unix()
	if start <= 0 || start > now || now-start > 3600 {
		t.Errorf("process start %d implausible against now %d", start, now)
	}
	// Registering twice (two endpoints, one registry) must not diverge.
	obs.RegisterBuildInfo(r, "optimized,basic,aerodrome")
	obs.RegisterBuildInfo(nil, "x") // nil registry is a no-op, not a panic
}

// TestHandlerMountsOnIndex asserts the contract the daemon relies on:
// every extra Mount is linked from the index page, serves at its
// pattern, and paths outside all mounts still 404.
func TestHandlerMountsOnIndex(t *testing.T) {
	r := obs.NewRegistry()
	hist := server.NewHistory(4)
	for i := 0; i < 6; i++ {
		hist.Add(server.SessionRecord{Session: fmt.Sprintf("s%d", i), Status: "ok"})
	}
	mounts := []Mount{
		{Pattern: "/debug/velo", Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			io.WriteString(w, "velo ok")
		})},
		{Pattern: "/api/sessions/", Handler: hist.APIHandler()},
	}
	srv := httptest.NewServer(Handler(r, mounts...))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, index := get("/")
	if code != 200 {
		t.Fatalf("index: %d", code)
	}
	for _, m := range mounts {
		if !strings.Contains(index, `href="`+m.Pattern+`"`) {
			t.Errorf("index does not link %s:\n%s", m.Pattern, index)
		}
	}
	if code, body := get("/debug/velo"); code != 200 || body != "velo ok" {
		t.Errorf("/debug/velo: %d %q", code, body)
	}
	if code, _ := get("/debug/velodrome"); code != 404 {
		t.Errorf("unmounted path: %d, want 404", code)
	}
	if code, _ := get("/api/nope"); code != 404 {
		t.Errorf("/api/nope: %d, want 404", code)
	}

	// The bare subtree path answers directly — no empty-bodied 301 for
	// clients that don't follow redirects (plain curl).
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noRedirect.Get(srv.URL + "/api/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("bare /api/sessions: status %d, want 200 without redirect", resp.StatusCode)
	}

	// The mounted history API honors its pagination bounds end to end.
	code, body := get("/api/sessions?limit=2")
	if code != 200 {
		t.Fatalf("/api/sessions?limit=2: %d", code)
	}
	var page struct {
		Total    int64                  `json:"total"`
		Retained int                    `json:"retained"`
		Count    int                    `json:"count"`
		Sessions []server.SessionRecord `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("list: %v\n%s", err, body)
	}
	if page.Total != 6 || page.Retained != 4 || page.Count != 2 || page.Sessions[0].Session != "s5" {
		t.Errorf("page %+v, want total=6 retained=4 count=2 newest=s5", page)
	}
	if code, _ := get("/api/sessions?limit=bogus"); code != 400 {
		t.Errorf("bad limit: %d, want 400", code)
	}
	if code, _ := get("/api/sessions?offset=-3"); code != 400 {
		t.Errorf("negative offset: %d, want 400", code)
	}
	if code, _ := get("/api/sessions/s9"); code != 404 {
		t.Errorf("unknown session: %d, want 404", code)
	}
}

func TestServe(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("graph_nodes_alive").Set(7)
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "graph_nodes_alive 7") {
		t.Errorf("served metrics:\n%s", body)
	}
}
