package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
)

// daemon-stream: a velodromed built and spawned in set-up with default
// flags (Unix socket, durable store, fsync every record), driven by one
// closed-loop client per CPU through server.CheckReader — the calling
// pattern of `tracecheck -server` and `veloinstr -run -server`. Each
// client replays its own loop-regime trace, so per-op cost is everything.
// What one session costs whatever its size is priced in the traced run
// (server.session_overhead_us, server.verdict_codec_us, store.*).

const (
	// Ops per daemon-stream session: per-session cost is under 1% of it,
	// and a session still lasts only tens of milliseconds (see tally for
	// why repetitions are kept short).
	streamOps       = 100_000
	daemonWarnCap   = 16  // velodromed's default cap on warnings per verdict
	overheadSamples = 200 // 1-op sessions timed for server.session_overhead_us
	storeSamples    = 200 // appends timed per store configuration
)

// daemon is one spawned velodromed.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // Unix socket path
	dir    string // socket, store and log live here
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
}

// startDaemon launches bin in dir on a Unix socket, with a store unless
// withStore is false, and waits until it accepts connections.
func startDaemon(bin, dir string, withStore bool, extra ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: filepath.Join(dir, "d.sock"), dir: dir, log: logf, exited: make(chan struct{})}
	args := []string{"-listen", "127.0.0.1:0", "-unix", d.addr}
	if withStore {
		args = append(args, "-store-dir", filepath.Join(dir, "store"))
	}
	d.cmd = exec.Command(bin, append(args, extra...)...)
	d.cmd.Stderr = logf
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting velodromed: %w", err)
	}
	go func() {
		d.cmd.Wait() // the exit status is not used: stop() decides what a clean end is
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if conn, err := net.Dial("unix", d.addr); err == nil {
			conn.Close()
			return d, nil
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("velodromed exited during start-up: %s", tailOf(logf.Name()))
		case <-time.After(2 * time.Millisecond):
		}
	}
	d.stop()
	return nil, fmt.Errorf("velodromed did not accept connections within 10s: %s", tailOf(logf.Name()))
}

// stop drains the daemon with SIGTERM, kills it if that takes more than
// five seconds, and returns once the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) // fails only when it has already exited
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

func tailOf(path string) string {
	data, _ := os.ReadFile(path) // best effort: decorates an error message
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}

type daemonWorkload struct {
	dir    string // this set-up's directory under the work dir
	bin    string // the velodromed built by this set-up
	main   *daemon
	inputs []*input
}

func (w *daemonWorkload) setUp(c *config) error {
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.workDir, "daemon-")
	if err != nil {
		return err
	}
	w.dir, w.bin = dir, filepath.Join(dir, "velodromed")
	if err := goBuild("", w.bin, "repro/cmd/velodromed"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(c.seed))
	for i := 0; i < clients(); i++ {
		in, err := newInput(fmt.Sprintf("stream%d", i), loopTrace(rng, c.sized(streamOps)))
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, in)
	}
	w.main, err = startDaemon(w.bin, filepath.Join(dir, "main"), true)
	return err
}

func (w *daemonWorkload) tearDown() {
	if w.main != nil {
		w.main.stop()
		w.main = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
	w.inputs = nil
}

// goBuild compiles pkg, seen from directory dir ("" for this one, which
// is inside the repository's module), into out.
func goBuild(dir, out, pkg string) error {
	out, err := filepath.Abs(out) // the work directory is relative, and go build runs in dir
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v: %s", pkg, err, strings.TrimSpace(string(msg)))
	}
	return nil
}

func (w *daemonWorkload) window(c *config, d time.Duration, tr *tracer) (*tally, error) {
	t := newTally(clients(), 1)
	cpu0, err := procCPU(w.main.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	w.drive(t, d, tr, w.checkAt(t, w.main.addr))
	t.wall = time.Since(start)
	cpu1, err := procCPU(w.main.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	t.cpu = cpu1 - cpu0
	return t, nil
}

// checkAt is one session against the daemon at addr, judged against the
// input's reference.
func (w *daemonWorkload) checkAt(t *tally, addr string) func(*input, trace.SessionHeader) string {
	return func(in *input, hdr trace.SessionHeader) string {
		v, err := server.CheckReader(addr, hdr, bytes.NewReader(in.bin))
		return w.judge(t, in, v, err)
	}
}

// drive runs the closed loop: every client replays its own trace, sending
// the next session only after the answer to the previous one, until d has
// passed. session returns "" or what was wrong with the answer.
func (w *daemonWorkload) drive(t *tally, d time.Duration, tr *tracer, session func(*input, trace.SessionHeader) string) {
	var wg sync.WaitGroup
	start := time.Now()
	for cl := range t.cells {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			ln := tr.lane(fmt.Sprintf("client%d", cl))
			defer ln.done()
			in := w.inputs[cl]
			for k := 0; k == 0 || time.Since(start) < d; k++ {
				hdr := trace.SessionHeader{Name: fmt.Sprintf("c%d-%d", cl, k)}
				ln.span("session", func() {
					var problem string
					t0 := time.Now()
					ln.span("server.CheckReader", func() { problem = session(in, hdr) })
					t.observe(cl, 0, int64(in.ref.ops), time.Since(t0), problem)
				})
			}
		}(cl)
	}
	wg.Wait()
}

// judge compares a daemon verdict with the input's reference and books
// the daemon's own per-stage accounting.
func (w *daemonWorkload) judge(t *tally, in *input, v *trace.SessionVerdict, err error) string {
	if err != nil {
		t.add("errors", 1)
		return in.name + ": transport: " + err.Error()
	}
	switch v.Status {
	case trace.StatusOK:
	case trace.StatusBusy:
		t.add("busy", 1)
		return in.name + ": busy verdict"
	default:
		t.add("errors", 1)
		return fmt.Sprintf("%s: %s verdict (%s): %s", in.name, v.Status, v.Code, v.Error)
	}
	for key, ns := range v.Metrics {
		if strings.HasPrefix(key, "span_") {
			t.add(key, float64(ns))
		}
	}
	switch {
	case v.Ops != int64(in.ref.ops):
		return fmt.Sprintf("%s: verdict counts %d ops, want %d", in.name, v.Ops, in.ref.ops)
	case v.Serializable != in.ref.serializable:
		return fmt.Sprintf("%s: serializable=%v, want %v", in.name, v.Serializable, in.ref.serializable)
	case len(v.Warnings) != min(in.ref.warnings, daemonWarnCap):
		return fmt.Sprintf("%s: %d warnings, want %d", in.name, len(v.Warnings), min(in.ref.warnings, daemonWarnCap))
	case len(v.Warnings) > 0 && !strings.Contains(v.Warnings[0], fmt.Sprintf("(op %d:", in.ref.firstOpIndex)):
		return fmt.Sprintf("%s: first warning %q, want op %d", in.name, firstLine(v.Warnings[0]), in.ref.firstOpIndex)
	}
	return ""
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

func (w *daemonWorkload) layers(c *config, tr *tracer, e2e *tally) (map[string]float64, error) {
	ln := tr.lane("layers")
	defer ln.done()
	m, err := checkerLayers(c, w.inputs, ln)
	if err != nil {
		return nil, err
	}
	opsPerSession := float64(e2e.events) / float64(e2e.attempted)
	nproc := float64(runtime.NumCPU())

	// What the loaded window itself showed.
	m["server.verdict_p95_ms"] = quantile(e2e.latencies, 0.95)
	m["server.verdict_p99_ms"] = quantile(e2e.latencies, 0.99)
	m["server.busy_share"] = e2e.extra["busy"] / float64(e2e.attempted)
	m["server.error_share"] = e2e.extra["errors"] / float64(e2e.attempted)
	m["server.stage_decode_ns_per_op"] = e2e.extra["span_decode_ns"] / float64(e2e.events)
	m["server.stage_filter_ns_per_op"] = e2e.extra["span_filter_ns"] / float64(e2e.events)
	m["server.stage_graph_ns_per_op"] = e2e.extra["span_graph_ns"] / float64(e2e.events)
	m["server.stage_verdict_ns_per_session"] = e2e.extra["span_verdict_ns"] / float64(e2e.attempted)
	m["server.rss_peak_mb"] = procPeakRSSMB(w.main.cmd.Process.Pid)
	m["server.cpu_share"] = e2e.cpu.Seconds() / (e2e.wall.Seconds() * nproc)

	// Per-session cost with nothing to check: 1-op sessions, store off.
	var overheadErr error
	ln.span("server.CheckReader(1 op)", func() {
		m["server.session_overhead_us"], overheadErr = w.sessionOverhead(c)
	})
	if overheadErr != nil {
		return nil, overheadErr
	}
	m["server.ns_per_op"] = e2e.nsPerEvent() - m["server.session_overhead_us"]*1e3/opsPerSession

	// The same load against a daemon with span tracing off; its store then
	// supplies real records for the store measurement.
	window := time.Duration(c.seconds * float64(time.Second) / 4)
	var records []store.Record
	var nospansErr error
	ln.span("velodromed -span-trace=false", func() {
		m["server.nospans_ns_per_op"], records, nospansErr = w.noSpans(window)
	})
	if nospansErr != nil {
		return nil, nospansErr
	}

	// The same bytes over the same socket type to a listener that checks
	// nothing.
	var transportErr error
	ln.span("discard listener", func() {
		m["server.transport_ns_per_op"], transportErr = w.transport(window / 2)
	})
	if transportErr != nil {
		return nil, transportErr
	}
	m["server.handoff_residual_ns_per_op"] = m["server.ns_per_op"] - m["server.transport_ns_per_op"] -
		m["trace.decode_bin_ns_per_event"] - m["core.step_ns_per_event"]

	captured, err := server.CheckReader(w.main.addr, trace.SessionHeader{}, bytes.NewReader(w.inputs[0].bin))
	if err != nil {
		return nil, fmt.Errorf("capturing a verdict: %w", err)
	}
	ln.span("trace.WriteVerdict+ReadVerdict", func() {
		var buf bytes.Buffer
		const n = 1000
		d := timeReps(c.layerBudget(), func() {
			for i := 0; i < n; i++ {
				buf.Reset()
				_ = trace.WriteVerdict(&buf, captured) // a bytes.Buffer cannot fail
				_, _ = trace.ReadVerdict(&buf)
			}
		})
		m["server.verdict_codec_us"] = float64(d.Microseconds()) / n
	})

	var storeErr error
	ln.span("store.Append", func() { storeErr = w.storeLayer(records, m) })
	if storeErr != nil {
		return nil, storeErr
	}

	// The ledger, per session: what the isolated layers add up to against
	// what a client waited (its fastest session, like every other figure).
	_, _, sessionMs, _ := e2e.rates()
	explained := m["server.session_overhead_us"]*1e3 + m["store.append_fsync_us_p50"]*1e3 +
		opsPerSession*(m["server.transport_ns_per_op"]+m["trace.decode_bin_ns_per_event"]+m["core.step_ns_per_event"])
	m["ledger.residual_share"] = 1 - explained/(sessionMs*1e6)
	return m, nil
}

// sessionOverhead times 1-op sessions, one client, against an instance
// without a store: dial, header, admission, verdict, and nothing else.
func (w *daemonWorkload) sessionOverhead(c *config) (float64, error) {
	d, err := startDaemon(w.bin, filepath.Join(w.dir, "nostore"), false)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	var one bytes.Buffer
	if err := trace.MarshalBinary(&one, trace.Trace{trace.Wr(1, 1)}); err != nil {
		return 0, err
	}
	lat := make([]float64, c.sized(overheadSamples)+10)
	for i := range lat {
		t0 := time.Now()
		v, err := server.CheckReader(d.addr, trace.SessionHeader{}, bytes.NewReader(one.Bytes()))
		if err != nil || v.Status != trace.StatusOK || v.Ops != 1 {
			return 0, fmt.Errorf("1-op session failed: %v %+v", err, v)
		}
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(lat[10:]), nil // the first ten warm the path
}

// noSpans drives the workload's own load at an instance started with
// -span-trace=false and returns its ns per op and the records its store
// holds afterwards.
func (w *daemonWorkload) noSpans(d time.Duration) (float64, []store.Record, error) {
	inst, err := startDaemon(w.bin, filepath.Join(w.dir, "nospans"), true, "-span-trace=false")
	if err != nil {
		return 0, nil, err
	}
	t := newTally(clients(), 1)
	w.drive(t, d, nil, w.checkAt(t, inst.addr))
	inst.stop()
	if t.failed > 0 {
		return 0, nil, fmt.Errorf("span-less daemon: %d of %d sessions wrong: %v", t.failed, t.attempted, t.failures)
	}
	st, err := store.Open(filepath.Join(inst.dir, "store"), store.Options{})
	if err != nil {
		return 0, nil, fmt.Errorf("reopening the daemon's store: %w", err)
	}
	defer st.Close()
	records, err := st.Tail(storeSamples)
	if err != nil {
		return 0, nil, err
	}
	if len(records) == 0 {
		return 0, nil, fmt.Errorf("the daemon's store holds no record after %d sessions", t.attempted)
	}
	return t.nsPerEvent(), records, nil
}

// transport replays the workload's sessions against a benchmark-owned
// listener on the same socket type that reads the stream to its end and
// answers with a fixed verdict, through the same client code.
func (w *daemonWorkload) transport(d time.Duration) (float64, error) {
	addr := filepath.Join(w.dir, "discard.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		return 0, err
	}
	var served sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			served.Add(1)
			go func() {
				defer served.Done()
				defer conn.Close()
				n, _ := io.Copy(io.Discard, conn)
				fmt.Fprintf(conn, "{\"status\":\"ok\",\"serializable\":true,\"ops\":%d}\n", n)
			}()
		}
	}()
	t := newTally(clients(), 1)
	w.drive(t, d, nil, func(in *input, hdr trace.SessionHeader) string {
		if _, err := server.CheckReader(addr, hdr, bytes.NewReader(in.bin)); err != nil {
			return err.Error()
		}
		return ""
	})
	ln.Close()
	served.Wait()
	if t.failed > 0 {
		return 0, fmt.Errorf("discard listener: %d of %d sessions failed: %v", t.failed, t.attempted, t.failures)
	}
	return t.nsPerEvent(), nil
}

// storeLayer appends the daemon's own records to fresh stores, once with
// an fsync per record and once with none.
func (w *daemonWorkload) storeLayer(records []store.Record, m map[string]float64) error {
	appendAll := func(name string, syncEvery int) ([]float64, store.Stats, error) {
		st, err := store.Open(filepath.Join(w.dir, name), store.Options{SyncEvery: syncEvery})
		if err != nil {
			return nil, store.Stats{}, err
		}
		defer st.Close()
		lat := make([]float64, storeSamples)
		for i := range lat {
			rec := records[i%len(records)]
			rec.Seq = uint64(i + 1)
			t0 := time.Now()
			if err := st.Append(rec); err != nil {
				return nil, store.Stats{}, err
			}
			lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		return lat, st.Stats(), nil
	}
	synced, stats, err := appendAll("store-fsync", 1)
	if err != nil {
		return err
	}
	unsynced, _, err := appendAll("store-nosync", 1<<30)
	if err != nil {
		return err
	}
	m["store.append_fsync_us_p50"] = median(synced)
	m["store.append_fsync_us_p99"] = quantile(synced, 0.99)
	m["store.append_nosync_us_p50"] = median(unsynced)
	m["store.bytes_per_record"] = float64(stats.Bytes) / float64(stats.Appended)
	return nil
}
