package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// sessionSubtest names the subtest a session test runs its body in. The
// name dates from when sessions could also run sharded (parallel=4); it
// is kept so each test's results keep one name across that change.
const sessionSubtest = "parallel=0"

// startServer spins up a Server on a loopback TCP listener and returns
// its address plus a shutdown func that fails the test on unclean drain.
func startServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return s, ln.Addr().String(), stop
}

// cleanTrace is serializable; buggyTrace seeds the classic interleaved
// read-write cycle so the engine must warn.
func cleanTrace() trace.Trace {
	return trace.Trace{
		trace.Beg(1, "m"),
		trace.Acq(1, 0), trace.Rd(1, 0), trace.Wr(1, 0), trace.Rel(1, 0),
		trace.Fin(1),
		trace.Acq(2, 0), trace.Rd(2, 0), trace.Rel(2, 0),
	}
}

func buggyTrace() trace.Trace {
	return trace.Trace{
		trace.Beg(1, "inc"),
		trace.Rd(1, 0),
		trace.Wr(2, 0),
		trace.Wr(1, 0),
		trace.Fin(1),
	}
}

// encode renders tr in the chosen wire format.
func encode(t *testing.T, tr trace.Trace, binaryFmt bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if binaryFmt {
		err = trace.MarshalBinary(&buf, tr)
	} else {
		err = trace.Marshal(&buf, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerConcurrentSessions drives 36 concurrent sessions with mixed
// clean / buggy / malformed / empty traces over both wire formats and
// both engines, asserting per-session verdict isolation (every client
// gets exactly the verdict for its own trace) and a clean drain.
func TestServerConcurrentSessions(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr, stop := startServer(t, Config{MaxSessions: 64, Metrics: reg})

	type want struct {
		status       string
		serializable bool
	}
	kinds := []struct {
		name string
		body func(i int) []byte
		want want
	}{
		{"clean", func(i int) []byte { return encode(t, cleanTrace(), i%2 == 0) }, want{trace.StatusOK, true}},
		{"buggy", func(i int) []byte { return encode(t, buggyTrace(), i%2 == 0) }, want{trace.StatusOK, false}},
		{"malformed", func(i int) []byte { return []byte("rd(1,x0)\nthis is not an op\n") }, want{trace.StatusMalformed, false}},
		{"empty", func(i int) []byte { return nil }, want{trace.StatusMalformed, false}},
	}

	const perKind = 9 // 4 kinds × 9 = 36 ≥ 32 concurrent sessions
	var wg sync.WaitGroup
	errs := make(chan error, perKind*len(kinds))
	for k, kind := range kinds {
		for i := 0; i < perKind; i++ {
			wg.Add(1)
			go func(k, i int, kind struct {
				name string
				body func(i int) []byte
				want want
			}) {
				defer wg.Done()
				engine := "optimized"
				if i%3 == 0 {
					engine = "aerodrome"
				}
				hdr := trace.SessionHeader{Engine: engine, Name: fmt.Sprintf("%s-%d", kind.name, i)}
				v, err := CheckReader(addr, hdr, bytes.NewReader(kind.body(i)))
				if err != nil {
					errs <- fmt.Errorf("%s-%d: %v", kind.name, i, err)
					return
				}
				if v.Status != kind.want.status {
					errs <- fmt.Errorf("%s-%d: status %q (err %q), want %q", kind.name, i, v.Status, v.Error, kind.want.status)
					return
				}
				if v.Status == trace.StatusOK && v.Serializable != kind.want.serializable {
					errs <- fmt.Errorf("%s-%d: serializable=%v, want %v", kind.name, i, v.Serializable, kind.want.serializable)
					return
				}
				if v.Engine != engine {
					errs <- fmt.Errorf("%s-%d: engine %q, want %q", kind.name, i, v.Engine, engine)
				}
				if kind.name == "buggy" && len(v.Warnings) == 0 {
					errs <- fmt.Errorf("buggy-%d: no warnings in verdict", i)
				}
				if kind.name == "empty" && !strings.Contains(v.Error, "empty trace") {
					errs <- fmt.Errorf("empty-%d: error %q does not name the empty stream", i, v.Error)
				}
			}(k, i, kind)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stop()

	snap := reg.Snapshot()
	if got := snap.Counters["velodromed_sessions_accepted_total"]; got != perKind*int64(len(kinds)) {
		t.Errorf("accepted = %d, want %d", got, perKind*len(kinds))
	}
	if got := snap.Counters[`velodromed_verdicts_total{status="ok"}`]; got != 2*perKind {
		t.Errorf("ok verdicts = %d, want %d", got, 2*perKind)
	}
	if got := snap.Counters[`velodromed_verdicts_total{status="malformed"}`]; got != 2*perKind {
		t.Errorf("malformed verdicts = %d, want %d", got, 2*perKind)
	}
	if got := snap.Counters["velodromed_serializable_total"]; got != perKind {
		t.Errorf("serializable = %d, want %d", got, perKind)
	}
	if got := snap.Gauges["velodromed_sessions_active"]; got != 0 {
		t.Errorf("active sessions after drain = %d, want 0", got)
	}
}

// TestServerUnixSocket runs one session over a Unix socket, covering
// SplitAddr, stale-socket handling and half-close on *net.UnixConn.
func TestServerUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "velo.sock")
	s := New(Config{})
	ln, err := Listen(sock)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		<-served
	}()

	v, err := CheckReader(sock, trace.SessionHeader{}, bytes.NewReader(encode(t, buggyTrace(), true)))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusOK || v.Serializable {
		t.Errorf("verdict %+v, want non-serializable ok", v)
	}
	if network, _ := SplitAddr("unix:" + sock); network != "unix" {
		t.Errorf("SplitAddr(unix:...) = %s", network)
	}
	if network, _ := SplitAddr("127.0.0.1:80"); network != "tcp" {
		t.Errorf("SplitAddr(host:port) = %s", network)
	}
}

// TestServerShedsLoad pins the only session slot with a deliberately
// stalled client and asserts the next connection is shed with a busy
// verdict instead of queueing.
func TestServerShedsLoad(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr, stop := startServer(t, Config{MaxSessions: 1, Metrics: reg})

	// Occupy the slot: send the header and one op, then stall.
	slow, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Write(trace.SessionHeader{Name: "slow"}.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Write([]byte("rd(1,x0)\n")); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to admit the slow session.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges["velodromed_sessions_active"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow session never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	v, err := CheckReader(addr, trace.SessionHeader{Name: "shed-me"},
		bytes.NewReader(encode(t, cleanTrace(), false)))
	if err != nil {
		t.Fatalf("shed client: %v", err)
	}
	if v.Status != trace.StatusBusy {
		t.Fatalf("verdict %+v, want busy", v)
	}
	if v.ExitCode() != 2 {
		t.Errorf("busy exit code = %d, want 2", v.ExitCode())
	}

	// Release the slot; the slow session completes and the next client
	// is served normally.
	if _, err := slow.Write([]byte("wr(1,x0)\n")); err != nil {
		t.Fatal(err)
	}
	slow.(*net.TCPConn).CloseWrite()
	if v, err := trace.ReadVerdict(slow); err != nil || v.Status != trace.StatusOK {
		t.Fatalf("slow session verdict %+v, err %v", v, err)
	}
	slow.Close()

	v, err = CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(encode(t, cleanTrace(), false)))
	if err != nil || v.Status != trace.StatusOK {
		t.Fatalf("post-shed session: %+v, err %v", v, err)
	}
	stop()
	if got := reg.Snapshot().Counters["velodromed_sessions_shed_total"]; got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
}

// TestServerRejectsUnknownEngineBeforeAdmission pins the admission
// order: a session naming an engine the registry does not know is
// rejected on its header — malformed verdict with a stable code, never
// "busy" — even when the daemon is at its session cap, because the
// rejection happens before the slot claim. It must not consume a
// session slot or id, must not appear in the active map or the history
// ring, and must move only the rejected counter (plus the malformed
// verdict counter, which has always covered bad headers) — never shed.
func TestServerRejectsUnknownEngineBeforeAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	s, addr, stop := startServer(t, Config{MaxSessions: 1, Metrics: reg})

	// Pin the only slot with a stalled-but-admitted session.
	slow, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Write(trace.SessionHeader{Name: "slow"}.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Write([]byte("rd(1,x0)\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges["velodromed_sessions_active"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow session never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A full server still answers the unknown engine with malformed —
	// the header is judged before the cap is consulted. The registry's
	// reference engine (Figure 2) is as unknown to the daemon as a name
	// nobody registered.
	for _, engine := range []string{"warpdrive", "basic"} {
		v, err := CheckReader(addr, trace.SessionHeader{Engine: engine},
			bytes.NewReader(encode(t, cleanTrace(), false)))
		if err != nil {
			t.Fatalf("rejected client: %v", err)
		}
		if v.Status != trace.StatusMalformed || v.Code != trace.CodeUnknownEngine {
			t.Fatalf("verdict %+v, want malformed/%s", v, trace.CodeUnknownEngine)
		}
		if v.Session != "" {
			t.Errorf("rejected session was assigned id %q, want none", v.Session)
		}
		if !strings.Contains(v.Error, `"`+engine+`"`) || !strings.Contains(v.Error, "optimized, aerodrome") {
			t.Errorf("error %q should name the bad engine and list the accepted ones", v.Error)
		}
		if v.ExitCode() != 2 {
			t.Errorf("rejection exit code = %d, want 2", v.ExitCode())
		}
	}

	// A garbage first line is the same path with its own code.
	raw, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("GET / HTTP/1.1\n")); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	v2, err := trace.ReadVerdict(raw)
	if err != nil {
		t.Fatalf("bad-header client: %v", err)
	}
	raw.Close()
	if v2.Status != trace.StatusMalformed || v2.Code != trace.CodeBadHeader {
		t.Fatalf("verdict %+v, want malformed/%s", v2, trace.CodeBadHeader)
	}

	// Release the slot; the stalled session finishes untouched and the
	// next valid session is admitted — rejections did not leak slots.
	if _, err := slow.Write([]byte("wr(1,x0)\n")); err != nil {
		t.Fatal(err)
	}
	slow.(*net.TCPConn).CloseWrite()
	if v, err := trace.ReadVerdict(slow); err != nil || v.Status != trace.StatusOK {
		t.Fatalf("slow session verdict %+v, err %v", v, err)
	}
	slow.Close()
	v, err := CheckReader(addr, trace.SessionHeader{Engine: "aerodrome"},
		bytes.NewReader(encode(t, cleanTrace(), false)))
	if err != nil || v.Status != trace.StatusOK || !v.Serializable {
		t.Fatalf("post-rejection session: %+v, err %v", v, err)
	}
	stop()

	snap := reg.Snapshot()
	if got := snap.Counters["velodromed_sessions_rejected_total"]; got != 3 {
		t.Errorf("rejected = %d, want 3", got)
	}
	if got := snap.Counters["velodromed_sessions_shed_total"]; got != 0 {
		t.Errorf("shed = %d, want 0 (rejections must not count as shed)", got)
	}
	if got := snap.Counters[`velodromed_verdicts_total{status="malformed"}`]; got != 3 {
		t.Errorf("malformed verdicts = %d, want 3", got)
	}
	if got := snap.Gauges["velodromed_sessions_active"]; got != 0 {
		t.Errorf("active sessions after drain = %d, want 0", got)
	}
	// Only the two real sessions reach the history ring.
	if got := s.History().Len(); got != 2 {
		t.Errorf("history holds %d records, want 2 (rejections must not be recorded)", got)
	}
	for _, rec := range s.History().Recent(10, 0) {
		if rec.Status != trace.StatusOK {
			t.Errorf("history record %+v, want only ok sessions", rec)
		}
	}
}

// TestServerGracefulDrain starts sessions that are mid-stream when
// Shutdown begins and asserts they still receive real verdicts while
// new connections are refused.
func TestServerGracefulDrain(t *testing.T) { t.Run(sessionSubtest, testServerGracefulDrain) }

func testServerGracefulDrain(t *testing.T) {
	s, addr, _ := startServer(t, Config{MaxSessions: 8})

	const n = 4
	conns := make([]net.Conn, n)
	for i := range conns {
		conn, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		if _, err := conn.Write(trace.SessionHeader{Name: fmt.Sprintf("drain-%d", i)}.Encode()); err != nil {
			t.Fatal(err)
		}
		// First half of a buggy trace: the session is mid-flight.
		if _, err := conn.Write([]byte("begin.inc(1)\nrd(1,x0)\n")); err != nil {
			t.Fatal(err)
		}
	}

	// The accept loop takes connections off the listener in its own
	// time; one still queued there when the listener closes is reset by
	// the kernel, and that is not the drain under test.
	accepted := s.cfg.Metrics.Counter("velodromed_sessions_accepted_total")
	for deadline := time.Now().Add(5 * time.Second); accepted.Value() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d connections accepted", accepted.Value(), n)
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// New connections must be refused once the listener is down. The
	// close races with our dial, so allow a beat.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting during drain")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// In-flight sessions finish their streams and still get verdicts.
	for i, conn := range conns {
		if _, err := conn.Write([]byte("wr(2,x0)\nwr(1,x0)\nend(1)\n")); err != nil {
			t.Fatalf("conn %d: finishing stream during drain: %v", i, err)
		}
		conn.(*net.TCPConn).CloseWrite()
		v, err := trace.ReadVerdict(conn)
		if err != nil {
			t.Fatalf("conn %d: verdict during drain: %v", i, err)
		}
		if v.Status != trace.StatusOK || v.Serializable {
			t.Errorf("conn %d: verdict %+v, want non-serializable ok", i, v)
		}
		conn.Close()
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("drain was not clean: %v", err)
	}
}

// TestServerPanicIsolation poisons sessions via the step hook and
// asserts each gets an error verdict while the daemon itself is
// untouched and keeps serving. The deep case panics 150 k ops into a
// 400 k-op stream, with the client still busy: every goroutine the
// sessions started must be gone afterwards, and each such session's
// record, verdict and op counters agree on what it consumed.
func TestServerPanicIsolation(t *testing.T) { t.Run(sessionSubtest, testServerPanicIsolation) }

func testServerPanicIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	const poison = 66_666
	s, addr, stop := startServer(t, Config{MaxSessions: 8, Metrics: reg, stepHook: func(op trace.Op) {
		if op.Kind == trace.Write && op.Target == poison {
			panic("poisoned op")
		}
	}})

	poisoned := trace.Trace{trace.Rd(1, 0), trace.Wr(1, poison), trace.Wr(1, 0)}
	v, err := CheckReader(addr, trace.SessionHeader{Name: "poisoned"},
		bytes.NewReader(encode(t, poisoned, false)))
	if err != nil {
		t.Fatalf("poisoned session: %v", err)
	}
	if v.Status != trace.StatusError || !strings.Contains(v.Error, "panicked") {
		t.Fatalf("verdict %+v, want error/panic", v)
	}
	if v.Engine != "optimized" {
		t.Errorf("poisoned verdict engine %q, want optimized", v.Engine)
	}

	deep := make(trace.Trace, 0, 400_000)
	deep = append(deep, trace.Beg(1, "loop"))
	for len(deep) < 400_000 {
		deep = append(deep, trace.Rd(1, trace.Var(int32(len(deep)/100%4))))
	}
	deep[150_000] = trace.Wr(1, poison)
	body := encode(t, deep, true)
	const deepSessions = 5
	before := runtime.NumGoroutine()
	opsTotal := func() (daemon, tenant int64) {
		c := reg.Snapshot().Counters
		return c["velodromed_ops_total"], c[`velodromed_tenant_ops_total{tenant="default"}`]
	}
	for i := 0; i < deepSessions; i++ {
		daemon0, tenant0 := opsTotal()
		recorded := s.History().Total()
		// The daemon hangs up with most of the stream unread, so the
		// verdict can be lost to the connection reset: a transport error
		// is acceptable here, any other verdict is not.
		v, err := CheckReader(addr, trace.SessionHeader{Name: "deep"}, bytes.NewReader(body))
		if err == nil && v.Status != trace.StatusError {
			t.Fatalf("deep-poisoned session %d: verdict %+v, want error/panic", i, v)
		}
		for deadline := time.Now().Add(10 * time.Second); s.History().Total() == recorded; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("deep-poisoned session %d never reached the history", i)
			}
		}
		// The operations the session consumed before the panic are the
		// same count in its record, the daemon counter and its tenant's.
		rec := s.History().Recent(1, 0)[0]
		daemon1, tenant1 := opsTotal()
		if rec.Ops == 0 || rec.Ops != daemon1-daemon0 || rec.Ops != tenant1-tenant0 {
			t.Errorf("deep-poisoned session %d: record ops %d, velodromed_ops_total +%d, tenant ops +%d; want equal and non-zero",
				i, rec.Ops, daemon1-daemon0, tenant1-tenant0)
		}
		if rec.Filtered > rec.Ops || rec.Engine != "optimized" || rec.Status != trace.StatusError {
			t.Errorf("deep-poisoned session %d: record %+v, want filtered <= ops, engine optimized, status error", i, rec)
		}
		if err == nil && (v.Ops != rec.Ops || v.Engine != rec.Engine) {
			t.Errorf("deep-poisoned session %d: verdict ops/engine %d/%q, record %d/%q", i, v.Ops, v.Engine, rec.Ops, rec.Engine)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d → %d after %d panicked sessions: session goroutines leaked\n%s",
				before, runtime.NumGoroutine(), deepSessions, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The daemon survives and keeps serving.
	v, err = CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(encode(t, cleanTrace(), true)))
	if err != nil || v.Status != trace.StatusOK || !v.Serializable {
		t.Fatalf("session after panic: %+v, err %v", v, err)
	}
	stop()
	if got := reg.Snapshot().Counters["velodromed_session_panics_total"]; got != 1+deepSessions {
		t.Errorf("panics = %d, want %d", got, 1+deepSessions)
	}
}

// TestServerIdleTimeout connects, sends half a session, and stalls: the
// read deadline must fail the session rather than pin its slot forever.
func TestServerIdleTimeout(t *testing.T) { t.Run(sessionSubtest, testServerIdleTimeout) }

func testServerIdleTimeout(t *testing.T) {
	_, addr, stop := startServer(t, Config{MaxSessions: 2, IdleTimeout: 100 * time.Millisecond})
	defer stop()

	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(trace.SessionHeader{Name: "hung"}.Encode())
	conn.Write([]byte("rd(1,x0)\n"))
	// No more bytes, no half-close: a hung client.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	v, err := trace.ReadVerdict(conn)
	if err != nil {
		t.Fatalf("want a timeout verdict, got transport error %v", err)
	}
	if v.Status != trace.StatusMalformed {
		t.Errorf("verdict %+v, want malformed (timeout)", v)
	}
	if v.Ops != 1 {
		t.Errorf("ops = %d, want the 1 op consumed before the stall", v.Ops)
	}
}

// TestServerZeroOpSession is the wire-level regression for the
// silent-success hole: a connection that opens a session and dies
// immediately must yield a malformed verdict, exit code 2.
func TestServerZeroOpSession(t *testing.T) { t.Run(sessionSubtest, testServerZeroOpSession) }

func testServerZeroOpSession(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()
	v, err := CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusMalformed || !strings.Contains(v.Error, "empty trace") || v.ExitCode() != 2 {
		t.Errorf("verdict %+v (exit %d), want malformed/empty/2", v, v.ExitCode())
	}
}

// TestServerStreamingBinarySession sends what an instrumented program's
// shim writes: the streaming binary format, whose end record carries the
// trailer. Whole, the verdict reports the trailer in Comments, where
// veloinstr -run -server cross-checks it; cut anywhere (inside the magic,
// among the ops, inside the end record), padded, or in the retired counted
// format, the session is malformed with the decode-error code, never ok.
func TestServerStreamingBinarySession(t *testing.T) {
	t.Run(sessionSubtest, testServerStreamingBinarySession)
}

func testServerStreamingBinarySession(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()
	const trailer = "velo events emitted=9 pruned=4"
	var buf bytes.Buffer
	if err := trace.MarshalStream(&buf, cleanTrace(), trailer); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	v, err := CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusOK || !v.Serializable || v.Ops != int64(len(cleanTrace())) ||
		len(v.Comments) != 1 || v.Comments[0] != trailer {
		t.Errorf("whole stream: verdict %+v, want ok, serializable, %d ops and the trailer", v, len(cleanTrace()))
	}
	bad := map[string][]byte{"padded": append(bytes.Clone(full), 0)}
	for cut := 1; cut < len(full); cut++ {
		bad[fmt.Sprintf("cut at %d", cut)] = full[:cut]
	}
	for name, body := range bad {
		v, err := CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Status != trace.StatusMalformed || v.Code != trace.CodeDecodeError || v.ExitCode() != 2 {
			t.Errorf("%s: verdict %+v (exit %d), want malformed/decode-error/2", name, v, v.ExitCode())
		}
		if len(v.Comments) != 0 {
			t.Errorf("%s: a refused stream's trailer %q reached the verdict", name, v.Comments)
		}
	}
	// The same operations in the retired counted format: refused by name.
	counted := append([]byte("VTR1\x05"), full[4:]...)
	v, err = CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(counted))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusMalformed || v.Code != trace.CodeDecodeError || v.Ops != 0 ||
		!strings.Contains(v.Error, "retired counted binary format") {
		t.Errorf("counted format: verdict %+v, want malformed/decode-error naming the retired format", v)
	}
}

// TestVerdictFilterMetrics asserts a session's verdict carries the
// engine's redundant-event counters: a transaction re-reading one
// variable in a loop must report filtered events (and the clock
// engine must report them too: it runs the same redundancy test).
func TestVerdictFilterMetrics(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()

	var tr trace.Trace
	tr = append(tr, trace.Wr(2, 0), trace.Beg(1, "loop"))
	for i := 0; i < 10; i++ {
		tr = append(tr, trace.Rd(1, 0))
	}
	tr = append(tr, trace.Fin(1))

	for _, engine := range []string{"optimized", "aerodrome"} {
		v, err := CheckReader(addr, trace.SessionHeader{Engine: engine}, bytes.NewReader(encode(t, tr, false)))
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != trace.StatusOK || !v.Serializable {
			t.Fatalf("engine %s: verdict %+v, want serializable ok", engine, v)
		}
		if got := v.Metrics["core_events_filtered_total"]; got < 8 {
			t.Errorf("engine %s: core_events_filtered_total = %d, want >= 8 (metrics: %v)",
				engine, got, v.Metrics)
		}
	}
}

// TestServerOutOfRangeIDsAreDecodeErrors: a thread, lock or fork/join id
// that would wrap or go negative as a table index never reaches an
// engine. On every engine the verdict is
// malformed/decode-error and names the place — it used to be the
// session's recover that answered, with an index-out-of-range panic.
func TestServerOutOfRangeIDsAreDecodeErrors(t *testing.T) {
	t.Run(sessionSubtest, testServerOutOfRangeIDsAreDecodeErrors)
}

func testServerOutOfRangeIDsAreDecodeErrors(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()
	streams := map[string]struct{ body, pos string }{
		"negative thread":   {"begin.a(0)\nrd(-1,x1)\nend(0)\n", "line 2"},
		"negative lock":     {"begin.a(0)\nacq(0,m-5)\nend(0)\n", "line 2"},
		"thread past int32": {"begin.a(0)\nrd(4294967295,x1)\nend(0)\n", "line 2"},
		"binary, thread 1<<31": {"VTS1" + string([]byte{byte(trace.End), 0, 0}) +
			string([]byte{byte(trace.Read), 0x80, 0x80, 0x80, 0x80, 0x08, 2}), "op 1"},
	}
	for _, info := range core.Engines() {
		if info.Reference {
			continue // the daemon refuses it on the header
		}
		for name, s := range streams {
			v, err := CheckReader(addr, trace.SessionHeader{Engine: info.Name}, strings.NewReader(s.body))
			if err != nil {
				t.Fatalf("%s, %s: %v", info.Name, name, err)
			}
			if v.Status != trace.StatusMalformed || v.Code != trace.CodeDecodeError || v.Ops != 1 ||
				!strings.Contains(v.Error, s.pos) || !strings.Contains(v.Error, "out of range") {
				t.Errorf("%s, %s: verdict %+v, want malformed/decode-error after 1 op, naming %s", info.Name, name, v, s.pos)
			}
		}
	}
}

// TestVerdictCommentsBounded: a text stream may send any number of
// comment lines, but its verdict carries back only the first 4 MiB of
// them, so that the client, which reads at most 16 MiB of verdict, can
// read it. Twenty comment lines of 1 MiB made an unreadable verdict.
func TestVerdictCommentsBounded(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()
	line := strings.Repeat("c", 1<<20-8)
	var body strings.Builder
	for i := 0; i < 20; i++ {
		body.WriteString("# " + line + "\n")
	}
	body.WriteString("wr(1,x1)\n")
	v, err := CheckReader(addr, trace.SessionHeader{}, strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusOK || v.Ops != 1 || len(v.Comments) != trace.MaxCommentBytes/len(line) || v.Comments[0] != line {
		t.Errorf("verdict %s, %d ops, %d comments: want ok, 1 op and the first %d comments",
			v.Status, v.Ops, len(v.Comments), trace.MaxCommentBytes/len(line))
	}
}
