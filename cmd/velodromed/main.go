// Command velodromed is the trace-ingestion daemon: a long-lived server
// that accepts many concurrent trace sessions over TCP and Unix sockets,
// runs one independent Velodrome engine per connection, and replies with
// a structured JSON verdict.
//
//	velodromed -listen 127.0.0.1:7764
//	velodromed -listen 127.0.0.1:7764 -unix /tmp/velo.sock -metrics-addr :8081
//	veloinstr -run -server 127.0.0.1:7764 examples/instr/bankbug
//	tracecheck -server 127.0.0.1:7764 trace.bin
//
// A session is one connection: a "VELOSESS/1" header line, the trace in
// either wire format, a half-close, then one verdict line back (see
// DESIGN.md, "The session protocol"). On SIGINT/SIGTERM the daemon
// drains gracefully: it stops accepting, lets in-flight sessions finish
// up to -drain-timeout, and emits their final verdicts before exiting.
//
// With -store-dir the daemon persists each completed session's record
// to an append-only segmented log and refills its history from it on
// startup, so /api/sessions and /debug/velo survive restarts (retention
// via -store-max-bytes / -store-max-age, fsync cadence via
// -store-sync-every). With -keyfile sessions are partitioned into
// tenants by the header's key= field: per-tenant session-rate and
// concurrency quotas are enforced before the global -max-sessions slot
// (verdict code "quota-exceeded"), and each tenant gets its own
// velodromed_tenant_* metric family plus a ?tenant= dashboard filter.
// Keyless sessions run under the built-in "default" tenant unchanged.
//
// Logs are structured (log/slog): text lines by default, JSON objects
// under -log-json. With -metrics-addr set, /debug/velo on the metrics
// mux lists the live sessions (id, engine, ops, graph size, filter hit
// rate, last warning) as HTML or JSON, and /api/sessions serves the
// verdict history (?limit, ?before cursor, ?tenant, ?since/?until).
// -heartbeat prints a periodic operations line (active sessions,
// sessions/s, shed/quota/store counters) on stderr.
//
// Exit status: 0 after a clean drain, 1 if draining timed out and
// sessions were cut, 2 on startup errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:7764", "TCP listen address")
	unixSock := flag.String("unix", "", "also listen on this Unix socket path")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session cap; excess connections get a busy verdict")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "per-read deadline: fail a session that goes this long without a byte")
	sessionTimeout := flag.Duration("session-timeout", 0, "bound one session's total wall-clock time (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "on SIGINT/SIGTERM, let in-flight sessions finish this long before cutting them")
	spanTrace := flag.Bool("span-trace", true, "trace each session's pipeline stages (decode/filter/graph/forensics); summaries land in verdicts, /api/sessions and /debug/velo. The engine stages are sampled: about half a nanosecond per operation, a session within 2-6 per cent of an untraced one (EXPERIMENTS.md, \"Tracing overhead\")")
	traceDir := flag.String("trace-dir", "", "write each session's full span timeline as <dir>/<session>.trace.json (Chrome trace-event format)")
	history := flag.Int("history", server.DefaultHistorySize, "completed sessions retained for /api/sessions and the /debug/velo dashboard")
	storeDir := flag.String("store-dir", "", "persist session verdicts to an append-only log in this directory; /api/sessions survives restarts")
	storeMaxBytes := flag.Int64("store-max-bytes", 64<<20, "drop the oldest store segments once the log exceeds this size")
	storeMaxAge := flag.Duration("store-max-age", 0, "drop store segments whose newest record is older than this (0 = keep until the size bound)")
	storeSyncEvery := flag.Int("store-sync-every", 1, "fsync the store after every N appended records (1 = every verdict durable before the ring)")
	keyfile := flag.String("keyfile", "", "tenant keyfile: 'tenant <name> key=<k> rate=N burst=N concurrent=N' per line; sessions authenticate with the VELOSESS/1 key= field")
	quiet := flag.Bool("q", false, "suppress per-session log lines")
	var f cli.Flags
	f.Register(flag.CommandLine, "velodromed", cli.Engine|cli.Log|cli.Metrics|cli.Heartbeat)
	f.Parse(os.Args[1:], nil)
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: velodromed [-listen addr] [-unix path] [flags]")
		return 2
	}
	logger := f.Log

	cfg := server.Config{
		MaxSessions:    *maxSessions,
		IdleTimeout:    *idleTimeout,
		MaxSessionTime: *sessionTimeout,
		Metrics:        obs.NewRegistry(),
		NoSpans:        !*spanTrace,
		TraceDir:       *traceDir,
		HistorySize:    *history,
	}
	if *traceDir != "" {
		if !*spanTrace {
			fmt.Fprintln(os.Stderr, "velodromed: -trace-dir requires -span-trace")
			return 2
		}
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "velodromed:", err)
			return 2
		}
	}
	einfo, err := server.SessionEngine(f.Engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "velodromed:", err)
		return 2
	}
	cfg.DefaultEngine = einfo.Engine
	if !*quiet {
		cfg.Logger = logger // nil stays silent for per-session records
	}
	if *keyfile != "" {
		cfgs, err := server.LoadKeyfile(*keyfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "velodromed:", err)
			return 2
		}
		if cfg.Tenants, err = server.NewTenants(cfgs); err != nil {
			fmt.Fprintln(os.Stderr, "velodromed:", err)
			return 2
		}
		logger.Info("tenants loaded", "keyfile", *keyfile, "tenants", len(cfgs))
	}

	s := server.New(cfg)
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{
			MaxBytes:  *storeMaxBytes,
			MaxAge:    *storeMaxAge,
			SyncEvery: *storeSyncEvery,
			Logger:    logger,
		})
		if err != nil {
			logger.Error("opening session store failed", "dir", *storeDir, "error", err)
			return 2
		}
		defer st.Close()
		if err := s.BindStore(st); err != nil {
			logger.Error("binding session store failed", "dir", *storeDir, "error", err)
			return 2
		}
		stats := st.Stats()
		logger.Info("session store open", "dir", *storeDir,
			"recovered", stats.Recovered, "lastSeq", stats.LastSeq,
			"tailTruncated", stats.TailTruncated)
	}
	f.Start(cfg.Metrics, obshttp.Mount{Pattern: "/debug/velo", Handler: s.DebugHandler()},
		obshttp.Mount{Pattern: "/api/sessions/", Handler: s.History().APIHandler()})

	if f.Heartbeat > 0 {
		// The heartbeat is the no-scrape view of service health: a bare
		// terminal (or journald) shows load, rejections and store lag
		// without anyone curling /metrics.
		reg := cfg.Metrics
		active, accepted, ops := reg.Gauge("velodromed_sessions_active"),
			reg.Counter("velodromed_sessions_accepted_total"), reg.Counter("velodromed_ops_total")
		shed, quota, rejected := reg.Counter("velodromed_sessions_shed_total"),
			reg.Counter("velodromed_sessions_quota_rejected_total"), reg.Counter("velodromed_sessions_rejected_total")
		storeLag, storeErrors := reg.Gauge("velodromed_store_lag"), reg.Counter("velodromed_store_errors_total")
		sessRate, opRate := obs.NewRate(time.Now()), obs.NewRate(time.Now())
		stopHB := obs.StartHeartbeat(os.Stderr, f.Heartbeat, func() string {
			now := time.Now()
			return fmt.Sprintf("velodromed: active=%d sessions/s=%.1f ops/s=%.0f shed=%d quota-rejected=%d rejected=%d store-lag=%d store-errors=%d",
				active.Value(), sessRate.Per(accepted.Value(), now), opRate.Per(ops.Value(), now),
				shed.Value(), quota.Value(), rejected.Value(), storeLag.Value(), storeErrors.Value())
		})
		defer stopHB()
	}

	// Catch signals before announcing any listener: a supervisor that
	// reacts to the announce by sending SIGTERM must hit the drain path,
	// never the default disposition.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	serveErrs := make(chan error, 2)
	addrs := []string{*listen}
	if *unixSock != "" {
		addrs = append(addrs, "unix:"+*unixSock)
	}
	for _, addr := range addrs {
		ln, err := server.Listen(addr)
		if err != nil {
			logger.Error("listen failed", "addr", addr, "error", err)
			return 2
		}
		logger.Info("listening", "addr", ln.Addr().String())
		go func() { serveErrs <- s.Serve(ln) }()
	}

	select {
	case sig := <-sigs:
		logger.Info("draining", "signal", sig.String(), "timeout", drainTimeout.String())
	case err := <-serveErrs:
		// A listener died outside shutdown: still drain what's running.
		logger.Error("listener failed; draining", "error", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		logger.Warn("drain timed out; in-flight sessions cut", "error", err)
		return 1
	}
	logger.Info("drained cleanly")
	return 0
}
