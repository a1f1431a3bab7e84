// Package server is the long-lived trace-ingestion daemon behind
// cmd/velodromed: it accepts many concurrent trace sessions over TCP or
// Unix sockets, runs one independent Velodrome engine per connection,
// and replies with a structured verdict.
//
// One connection is one session is one engine. The analyses' state —
// the transactional happens-before graph, last-access maps, per-thread
// clocks — is all reachable from a single core.Checker, so sessions
// share nothing and need no locks between them; isolation falls out of
// construction rather than synchronization. The production concerns
// live here instead: a session cap with load-shedding, per-read
// deadlines so a hung client cannot pin a slot, batch-at-a-time decoding
// with backpressure, panic isolation, and graceful drain.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// MaxSessions caps concurrently running sessions. Connections
	// beyond the cap are shed right after their header line: they
	// receive a StatusBusy verdict and are closed without reading a
	// single op, so a loaded daemon degrades by refusing work, not by
	// queueing unboundedly. (The header is read first so that sessions
	// which could never run — unknown engine, garbage header — are
	// rejected as malformed rather than reported busy, and never
	// compete for a slot at all.) Default 64.
	MaxSessions int
	// IdleTimeout is the per-read deadline: the longest a session may
	// go without delivering a byte before it is failed. This is what
	// unpins slots held by hung or half-dead clients. Default 30s.
	IdleTimeout time.Duration
	// MaxSessionTime bounds one session's total wall-clock time,
	// however chatty the client. 0 means unbounded.
	MaxSessionTime time.Duration
	// MaxWarnings caps the warning strings carried in one verdict
	// (the engines record more internally). Default 16.
	MaxWarnings int
	// DefaultEngine is used when a session header names none.
	DefaultEngine core.Engine
	// Metrics receives the daemon's instruments (see metrics.go for the
	// names); nil gets a registry of its own. Engines do not attach to
	// it: the graph gauges assume one graph per registry, and seeding
	// them from dozens of concurrent per-session graphs would corrupt
	// the aggregate. Session-level throughput is recorded here instead.
	Metrics *obs.Registry
	// NoSpans disables per-session span tracing. By default every
	// session carries a lightweight tracer (see internal/span) whose
	// per-stage rollup lands in the verdict's metrics block, the
	// history ring and /debug/velo; spans never influence verdicts and
	// the engines time only a sample of their operations, so this knob
	// only exists to shave the last few percent off a daemon that is
	// purely in the checking business.
	NoSpans bool
	// TraceDir, when set, writes each session's full span timeline as
	// a Chrome trace-event JSON file <TraceDir>/<session>.trace.json,
	// loadable in chrome://tracing or Perfetto. Off by default; the
	// per-stage summaries are retained regardless.
	TraceDir string
	// HistorySize caps the completed-session history ring behind
	// /api/sessions and the /debug/velo dashboard. Default 128.
	HistorySize int
	// Tenants is the tenant table (NewTenants over keyfile entries).
	// Nil means a single unlimited default tenant, which keeps keyless
	// legacy clients working exactly as before tenants existed.
	Tenants *Tenants
	// Logger, when non-nil, receives one structured record per
	// noteworthy event (session end, shed, panic), each carrying the
	// session id and remote address. Defaults to silent.
	Logger *slog.Logger

	// stepHook, when non-nil, observes every op of a batch on the session
	// goroutine before the batch reaches the engine. Tests use it to inject
	// per-session faults (e.g. a panic on a poisoned op) without a wire format.
	stepHook func(trace.Op)
	// labelsHook, when non-nil, is handed each session's label table as
	// the session opens. Tests use it to check that a table is the
	// session's alone and dies with it.
	labelsHook func(*trace.Labels)
}

func (c *Config) applyDefaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.MaxWarnings <= 0 {
		c.MaxWarnings = 16
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Server accepts and checks trace sessions. Construct with New, feed it
// listeners via Serve, stop it with Shutdown.
type Server struct {
	cfg     Config
	met     *serverMetrics
	hist    *History
	tenants *Tenants

	slots chan struct{} // session-cap semaphore

	seq    atomic.Int64 // session id source
	active sync.Map     // session id → *atomic.Pointer[SessionRecord], for /debug/velo

	mu        sync.Mutex
	listeners map[net.Listener]bool
	conns     map[net.Conn]bool
	draining  bool

	sessions sync.WaitGroup
}

// New returns a Server for cfg.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	tenants := cfg.Tenants
	if tenants == nil {
		tenants, _ = NewTenants(nil) // cannot fail: no entries to collide
	}
	tenants.bind(cfg.Metrics)
	return &Server{
		cfg:       cfg,
		met:       newServerMetrics(cfg.Metrics),
		hist:      NewHistory(cfg.HistorySize),
		tenants:   tenants,
		slots:     make(chan struct{}, cfg.MaxSessions),
		listeners: map[net.Listener]bool{},
		conns:     map[net.Conn]bool{},
	}
}

// History exposes the completed-session ring (mount History().APIHandler
// at /api/sessions/ next to DebugHandler).
func (s *Server) History() *History { return s.hist }

// BindStore attaches a durable session store: the history ring refills
// from the log so /api/sessions survives the restart, subsequent
// sessions write through, and the session-id counter seeds above every
// id a pre-restart client might still be holding. Call before Serve.
func (s *Server) BindStore(st *store.Store) error {
	if err := s.hist.BindStore(st); err != nil {
		return err
	}
	s.hist.storeNote = func(err error, stats store.Stats) {
		if err != nil {
			s.met.storeErrors.Inc()
			s.cfg.Logger.Warn("store append failed", "error", err)
		} else {
			s.met.storeWrites.Inc()
		}
		s.met.storeLag.Set(int64(stats.Lag))
	}
	seed := st.LastSeq()
	if m := s.hist.MaxSessionNum(); m > seed {
		seed = m
	}
	s.seq.Store(int64(seed))
	return nil
}

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// Listen opens a listener for addr in SplitAddr notation ("host:port"
// for TCP, "unix:/path" or any path containing '/' for Unix sockets).
// A stale Unix socket file from a dead daemon is removed first.
func Listen(addr string) (net.Listener, error) {
	network, address := SplitAddr(addr)
	if network == "unix" {
		if _, err := os.Stat(address); err == nil {
			// Only unlink if nothing is accepting: a live daemon's
			// socket must not be stolen out from under it.
			if conn, err := net.DialTimeout("unix", address, 250*time.Millisecond); err == nil {
				conn.Close()
				return nil, fmt.Errorf("server: %s: address already in use", address)
			}
			os.Remove(address)
		}
	}
	return net.Listen(network, address)
}

// SplitAddr maps one user-facing address string onto (network,
// address): anything with a path separator or a "unix:" prefix is a
// Unix socket, the rest is TCP.
func SplitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if strings.Contains(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// Serve accepts sessions on ln until Shutdown. Each connection is
// handled on its own goroutine; Serve itself blocks and always returns
// a non-nil error (ErrServerClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = true
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		s.met.accepted.Inc()

		// Admission — header validation, rejection, load shedding, the
		// slot claim — happens on the connection's own goroutine, off
		// the accept loop, so a client that is slow to send its header
		// cannot stall admission of others.
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.sessions.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.sessions.Done()
			}()
			s.handle(conn)
		}()
	}
}

// Shutdown drains the server: close the listeners (new connections are
// refused by the OS), let in-flight sessions finish and emit their
// verdicts, and only force-close connections when ctx expires. It
// returns nil on a clean drain and ctx.Err() if connections had to be
// killed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.sessions.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done // handlers exit promptly once their conns error
		return ctx.Err()
	}
}

// tenantLabel renders a tenant for verdicts and records: empty for the
// default tenant, so legacy keyless sessions see byte-identical output.
func tenantLabel(t *tenant) string {
	if t == nil || t.cfg.Name == DefaultTenant {
		return ""
	}
	return t.cfg.Name
}

// deadlineReader arms a fresh read deadline before every Read, so the
// session dies IdleTimeout after the client last produced a byte (and
// no later than the absolute session deadline), wherever in the
// protocol it stalls.
type deadlineReader struct {
	conn     net.Conn
	idle     time.Duration
	absolute time.Time // zero = no session-wide bound
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	deadline := time.Now().Add(d.idle)
	if !d.absolute.IsZero() && d.absolute.Before(deadline) {
		deadline = d.absolute
	}
	d.conn.SetReadDeadline(deadline)
	return d.conn.Read(p)
}

// handle runs one session and writes its verdict — after session has
// returned and so released the slot, the tenant quota and the live listing:
// a client that reconnects the moment it reads the verdict finds them free.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	v := s.session(conn)
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := trace.WriteVerdict(conn, v); err != nil {
		s.cfg.Logger.Warn("writing verdict failed",
			"session", v.Session, "remote", conn.RemoteAddr().String(), "error", err)
	}
}

// session is one complete session up to its verdict: admission (header,
// rejection, load shedding, the slot claim), op stream, history record.
// An admitted session is one SessionRecord, built here and filled in by
// run; the live listing, the history, the verdict's engine and op count
// and the tenant counters all read it.
func (s *Server) session(conn net.Conn) *trace.SessionVerdict {
	start := time.Now()

	dr := &deadlineReader{conn: conn, idle: s.cfg.IdleTimeout}
	if s.cfg.MaxSessionTime > 0 {
		dr.absolute = start.Add(s.cfg.MaxSessionTime)
	}
	bufs := sessionBufs.Get().(*sessionBuf)
	bufs.br.Reset(dr)
	defer func() {
		bufs.br.Reset(nil) // the pool keeps no connection
		sessionBufs.Put(bufs)
	}()
	br := bufs.br
	var tr *span.Tracer
	if !s.cfg.NoSpans {
		tr = span.New()
		defer tr.Release() // its summary and export are taken below
	}

	// Header first. A session that could never run — garbage header,
	// unknown engine — is rejected here, before a slot, an engine, or
	// any session accounting exists: it gets a malformed verdict with a
	// stable code, bumps only the rejected counter (and the malformed
	// verdict counter, which has always covered bad headers), and
	// leaves the shed/active metrics, the session-id sequence and the
	// history ring untouched.
	hdrStart := tr.Now()
	hdr, err := trace.ReadSessionHeader(br)
	hdrEnd := tr.Now()
	var info core.EngineInfo
	var code string
	switch {
	case err != nil:
		code = trace.CodeBadHeader
	case hdr.Engine == "":
		info = core.InfoFor(s.cfg.DefaultEngine)
	default:
		if info, err = SessionEngine(hdr.Engine); err != nil {
			code = trace.CodeUnknownEngine
		}
	}
	// Tenant resolution joins the pre-admission gate: an unknown key is
	// rejected like a bad header, before any session state exists.
	var ten *tenant
	if err == nil {
		if ten = s.tenants.lookup(hdr.Key); ten == nil {
			code = trace.CodeUnknownKey
			err = errors.New("unknown API key (not in the daemon's tenant keyfile)")
		}
	}
	if err != nil {
		s.met.rejected.Inc()
		v := &trace.SessionVerdict{Status: trace.StatusMalformed, Code: code, Error: err.Error()}
		s.met.observeVerdict(v, time.Since(start))
		s.cfg.Logger.Warn("session rejected",
			"remote", conn.RemoteAddr().String(), "code", code, "error", err.Error())
		return v
	}

	// Tenant quotas come before the daemon-wide slot claim, so an
	// over-quota tenant is charged against its own budget and never
	// competes for shared capacity. quota-exceeded is deliberately a
	// different code than busy: busy means the daemon is full,
	// quota-exceeded means this tenant is over its own limit while the
	// daemon may be idle.
	switch ten.admit(time.Now()) {
	case admitOK:
		defer ten.release()
	default:
		s.met.quota.Inc()
		ten.quota.Inc()
		s.cfg.Logger.Warn("session quota-rejected",
			"remote", conn.RemoteAddr().String(), "tenant", ten.Name())
		return &trace.SessionVerdict{
			Status: trace.StatusBusy,
			Code:   trace.CodeQuotaExceeded,
			Tenant: tenantLabel(ten),
			Error:  fmt.Sprintf("tenant %s over its session quota", ten.Name()),
		}
	}

	// Load shedding: claim a slot without blocking. A full daemon
	// answers immediately and cheaply — the client learns "busy"
	// instead of hanging in an invisible queue.
	select {
	case s.slots <- struct{}{}:
	default:
		s.met.shed.Inc()
		ten.shed.Inc()
		s.cfg.Logger.Warn("session shed",
			"remote", conn.RemoteAddr().String(), "cap", s.cfg.MaxSessions)
		return &trace.SessionVerdict{
			Status: trace.StatusBusy,
			Code:   trace.CodeBusy,
			Tenant: tenantLabel(ten),
			Error:  fmt.Sprintf("session limit reached (%d active)", s.cfg.MaxSessions),
		}
	}
	defer func() { <-s.slots }()

	s.met.active.Add(1)
	defer s.met.active.Add(-1)
	ten.sessions.Inc()

	rec := &SessionRecord{
		Session:   fmt.Sprintf("s%d", s.seq.Add(1)),
		Tenant:    tenantLabel(ten),
		Remote:    conn.RemoteAddr().String(),
		Engine:    info.Name, // canonical: "opt" in the header reports as "optimized"
		Forensics: hdr.Forensics,
		Started:   start,
	}
	live := new(atomic.Pointer[SessionRecord])
	publish(live, rec)
	s.active.Store(rec.Session, live)
	defer s.active.Delete(rec.Session)
	logger := s.cfg.Logger.With("session", rec.Session, "remote", rec.Remote)

	v := s.run(br, bufs.ops, info.Engine, rec, live, logger, tr, hdrStart, hdrEnd)

	elapsed := time.Since(start)
	v.Session, v.Tenant, v.Engine, v.Ops = rec.Session, rec.Tenant, rec.Engine, rec.Ops
	v.DurationMs = elapsed.Milliseconds()
	ten.ops.Add(rec.Ops)
	ten.warnings.Add(int64(len(rec.Warnings)))
	ten.duration.Observe(int64(elapsed))
	// The engine and decoder have quiesced (run returned), so the span
	// rollup is safe to read; it rides in the verdict's metrics block as
	// span_<stage>_ns so clients see where their session's time went.
	// After a recovered panic (StatusError) the session's buffer was
	// abandoned mid-batch, its root span open and never flushed, and its
	// totals would describe a run the verdict does not; the tracer is left
	// untouched for that path.
	var sum *span.Summary
	if v.Status != trace.StatusError {
		sum = tr.Summary()
	}
	if sum != nil && len(sum.Stages) > 0 {
		if v.Metrics == nil {
			v.Metrics = map[string]int64{}
		}
		for name, m := range sum.Stages {
			v.Metrics["span_"+name+"_ns"] = m.Ns
		}
		// Spans lost to the per-buffer cap: the timeline has holes (the
		// stage totals above do not — they are accumulators, not spans).
		if sum.Dropped > 0 {
			v.Metrics["span_dropped"] = sum.Dropped
		}
	}
	s.met.observeVerdict(v, elapsed)
	logger.Info("session complete",
		"engine", v.Engine, "status", v.Status, "ops", v.Ops,
		"warnings", len(v.Warnings), "duration", elapsed.Round(time.Millisecond).String())

	rec.Status, rec.Serializable, rec.Error = v.Status, v.Serializable, v.Error
	rec.DurationMs, rec.Spans, rec.Reports = v.DurationMs, sum, v.Reports
	if s.cfg.TraceDir != "" && tr != nil && v.Status != trace.StatusError {
		path := filepath.Join(s.cfg.TraceDir, rec.Session+".trace.json")
		if err := tr.WriteChromeFile(path); err != nil {
			logger.Warn("writing session trace failed", "path", path, "error", err)
		} else {
			rec.TraceFile = path
		}
	}
	s.hist.Add(*rec)
	return v
}

// SessionEngine resolves an engine name for a session: the registry
// minus its reference engines, which the daemon does not run.
func SessionEngine(name string) (core.EngineInfo, error) {
	if info, ok := core.EngineByName(name); ok && !info.Reference {
		return info, nil
	}
	return core.EngineInfo{}, fmt.Errorf("unknown engine %q (want %s)", name, core.ProductionEngineNames())
}

// sessionBatch is the number of operations a session decodes and steps
// at a time.
const sessionBatch = 4096

// sessionBuf is what a session reads and decodes into: the connection's
// read buffer, which the decoder reads through as its own, and the batch.
// Together they are most of what a session allocates, so sessions take
// them from sessionBufs and give them back.
type sessionBuf struct {
	br  *bufio.Reader
	ops []trace.Op
}

var sessionBufs = sync.Pool{New: func() any {
	return &sessionBuf{br: bufio.NewReaderSize(nil, trace.DecoderBufSize), ops: make([]trace.Op, sessionBatch)}
}}

// run decodes and checks one admitted session's stream, batch by batch
// into ops, converting every failure mode — malformed ops, engine panic —
// into a verdict. (Header failures never reach here: session rejects them
// before admission.) It never lets a panic escape: one poisoned session must
// not take down the daemon. At each batch boundary it brings rec's
// counters and warning digests up to date and publishes a copy to live,
// so a panicked session's record still holds what it consumed.
// hdrStart/hdrEnd are the tracer timestamps bracketing session's header
// read, re-emitted here so the header stage still appears on the
// session's span timeline.
func (s *Server) run(br *bufio.Reader, ops []trace.Op, engine core.Engine, rec *SessionRecord,
	live *atomic.Pointer[SessionRecord], logger *slog.Logger, tr *span.Tracer, hdrStart, hdrEnd int64) (v *trace.SessionVerdict) {
	defer func() {
		if r := recover(); r != nil {
			s.met.panics.Inc()
			logger.Error("session panic", "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
			v = &trace.SessionVerdict{
				Status: trace.StatusError,
				Error:  fmt.Sprintf("internal: session panicked: %v", r),
			}
		}
	}()

	// sb is the session goroutine's span buffer: the root span, the
	// header/verdict stages, the per-batch decode/check spans and — via
	// core.Options.Spans — the engine's filter/graph/forensics attribution.
	// All are inert under a nil tracer.
	sb := tr.Buffer("session")
	root := sb.Start("session", 0)
	sb.AttrStr(root, "session", rec.Session)

	if hid := sb.Emit("header", root, hdrStart, hdrEnd); hid != 0 {
		sb.AddStage(span.StageHeader, hdrEnd-hdrStart)
	}
	opts := core.Options{Engine: engine, MaxWarnings: s.cfg.MaxWarnings, Forensics: rec.Forensics, Spans: sb}
	sb.AttrStr(root, "engine", rec.Engine)

	// The session decodes and checks batch by batch on this goroutine: a
	// step costs what a decode costs, so a decode-ahead goroutine would buy
	// an idle host little and make a busy one's session times depend on
	// which of the two found a CPU. The transport is read no faster than
	// the engine consumes, which backpressures the client. The decoder
	// mints the session's label ids in a table of its own: nothing a
	// client names outlives its session or reaches another's verdict.
	labels := trace.NewLabels()
	if s.cfg.labelsHook != nil {
		s.cfg.labelsHook(labels)
	}
	dec := trace.NewDecoderLabels(br, labels)
	source := core.StreamSource(dec, ops, sb)

	// emitBatch closes the timeline's current interval as one span: "decode"
	// is the wait for a batch (decode time not hidden behind the engine),
	// "check" its stepping, with children sized by the engine's stage deltas.
	mark := tr.Now()
	var prevStages [span.NumStages]int64
	emitBatch := func(name string, ops int, stages ...span.Stage) {
		if sb == nil || ops == 0 {
			return
		}
		now := tr.Now()
		id := sb.Emit(name, root, mark, now)
		sb.AttrInt(id, "ops", int64(ops))
		sb.EmitStages(id, mark, now, &prevStages, stages...)
		mark = now
	}
	next := func() (core.Batch, error) {
		b, err := source()
		emitBatch("decode", len(b.Ops))
		if s.cfg.stepHook != nil {
			for _, op := range b.Ops {
				s.cfg.stepHook(op)
			}
		}
		return b, err
	}
	var checker core.Checker
	res, _, derr := core.Check(next, opts, &core.Observer{
		Checker: func(c core.Checker) { checker = c },
		// The batch is the record's and the span timeline's interval.
		Batch: func(ops, _ int) {
			s.met.ops.Add(int64(ops))
			snap := checker.Snapshot()
			rec.Ops += int64(ops)
			rec.Filtered, rec.GraphNodes, rec.GraphEdges = snap.Filtered, int64(snap.Stats.Alive), int64(snap.Stats.Edges)
			// The engine keeps at most MaxWarnings, the verdict's cap. The
			// record keeps each one's first line; the verdict carries the cycles.
			for _, w := range checker.Warnings()[len(rec.Warnings):] {
				line, _, _ := strings.Cut(w.String(), "\n")
				rec.Warnings = append(rec.Warnings, line)
			}
			publish(live, rec)
			emitBatch("check", ops, span.StageFilter, span.StageGraph, span.StageForensics)
		},
	})

	verdictStart := tr.Now()
	v = &trace.SessionVerdict{Comments: dec.Comments}
	switch {
	case derr == nil:
		v.Status = trace.StatusOK
		v.Serializable = res.Serializable
	case errors.Is(derr, core.ErrEmptyStream):
		// The zero-op hole, closed at the daemon too: an empty stream
		// is a crashed producer, not a serializable program.
		v.Status, v.Code, v.Error = trace.StatusMalformed, trace.CodeEmptyStream, derr.Error()
		res = &core.Result{}
	default:
		v.Status, v.Code, v.Error = trace.StatusMalformed, trace.CodeDecodeError, derr.Error()
	}
	if f, m := res.Filtered, res.Stats.FilteredEdges; f > 0 || m > 0 {
		v.Metrics = map[string]int64{
			core.MetricFiltered: f,
			core.MetricMemoHits: int64(m),
		}
	}
	for _, w := range res.Warnings {
		if len(v.Warnings) >= s.cfg.MaxWarnings {
			break
		}
		v.Warnings = append(v.Warnings, w.String())
		if rep := w.Forensics(); rep != nil {
			line, merr := rep.MarshalJSONLine()
			if merr != nil {
				line = []byte("null") // keep Reports aligned with Warnings
			}
			v.Reports = append(v.Reports, json.RawMessage(line))
		}
	}
	// One reading for both, so the stage's nanoseconds are the span's.
	verdictEnd := tr.Now()
	if vid := sb.Emit("verdict", root, verdictStart, verdictEnd); vid != 0 {
		sb.AddStage(span.StageVerdict, verdictEnd-verdictStart)
		sb.AttrStr(vid, "status", v.Status)
	}
	sb.End(root)
	return v
}
