// Package obshttp exposes an obs.Registry over HTTP: the /metrics
// endpoint (Prometheus text or JSON) plus the standard net/http/pprof
// profiles. It is a separate package so that binaries which only
// record metrics — or don't observe at all — never link the HTTP
// stack; only commands offering a -metrics-addr flag pay for it.
package obshttp

import (
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/obs"
)

// A Mount adds an extra endpoint to Handler's mux, listed on the index
// page under its pattern. velodromed uses this for /debug/velo.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// Handler returns an HTTP handler exposing the registry:
//
//	/metrics                Prometheus text (add ?format=json for JSON)
//	/debug/pprof/...        the standard net/http/pprof profiles
//	/                       a small index linking the above
//
// plus any extra mounts. The pprof handlers are mounted explicitly so
// the handler works on any mux without touching http.DefaultServeMux.
func Handler(r *obs.Registry, extra ...Mount) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			snap.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, m := range extra {
		mux.Handle(m.Pattern, m.Handler)
		// For subtree mounts, serve the bare path directly too: the
		// mux would otherwise answer `curl host/api/sessions` with an
		// empty-bodied 301 that non-following clients never resolve.
		if p := strings.TrimSuffix(m.Pattern, "/"); p != m.Pattern && p != "" {
			mux.Handle(p, m.Handler)
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>velodrome observability</h1>
<ul>
<li><a href="/metrics">/metrics</a> (Prometheus text; <a href="/metrics?format=json">JSON</a>)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a></li>
`)
		for _, m := range extra {
			fmt.Fprintf(w, `<li><a href=%q>%s</a></li>`+"\n", m.Pattern, html.EscapeString(m.Pattern))
		}
		fmt.Fprint(w, `</ul></body></html>`)
	})
	return mux
}

// Serve starts an HTTP server for Handler(r) on addr in a background
// goroutine and returns the server and the bound address (useful with
// ":0"). The caller owns shutdown; for the CLIs the server simply dies
// with the process.
func Serve(addr string, r *obs.Registry, extra ...Mount) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: Handler(r, extra...)}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
