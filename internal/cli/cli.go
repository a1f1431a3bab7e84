// Package cli is the commands' one command-line contract. Every flag
// that more than one command declares is declared here, once, and so is
// the table of which flags each mode of each command honours: a flag a
// command's mode would ignore is refused with exit status 2 and
// "<cmd>: -<flag> does not apply to <mode> (only to <modes>)", never
// dropped. The span tracer's lifecycle lives here too, next to
// -trace-out.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/span"
)

// Set selects which shared flags a command declares.
type Set uint

const (
	Engine    Set = 1 << iota // -engine
	NoFilter                  // -nofilter
	Forensics                 // -forensics
	Explain                   // -explain, which implies -forensics
	Dot                       // -dot
	NoMerge                   // -no-merge
	TraceOut                  // -trace-out
	ObsJSON                   // -obs-json
	Server                    // -server
	Key                       // -key
	Log                       // -log-level and -log-json
	Metrics                   // -metrics-addr
	Profile                   // -profile and -profile-out
	Heartbeat                 // -heartbeat
)

// Mode is one way a command runs and the mode-dependent flags it
// honours.
type Mode struct {
	Name    string
	Honours []string
}

// Contract lists, per command, its modes. A flag that some mode of a
// command honours is refused in every other mode of that command; a
// flag no mode lists means the same in every mode. An unknown mode
// honours none of them.
var Contract = map[string][]Mode{
	"tracecheck": {
		{"local checking", []string{"engine", "forensics", "explain", "nofilter", "dot", "trace-out", "obs-json", "profile", "profile-out"}},
		{"local checking with -q", []string{"engine", "forensics", "nofilter", "dot", "trace-out", "obs-json", "profile", "profile-out"}},
		{"-server", []string{"engine", "forensics", "explain", "key"}},
		{"-server with -q", []string{"engine", "forensics", "key"}},
	},
	"velodrome": {
		{"-backend velodrome", []string{"engine", "nofilter", "forensics", "explain", "dot", "no-merge", "trace-out", "json", "stats"}},
		{"-backend atomizer", nil},
		{"-backend eraser", nil},
		{"-backend empty", nil},
	},
	"veloinstr": {
		{"-analyze", []string{"analyze", "json"}},
		{"rewriting", []string{"o", "noprune"}},
		{"-run", []string{"run", "o", "noprune", "trace", "trace-out", "obs-json"}},
		{"-run -server", []string{"run", "server", "o", "noprune"}},
	},
	"velobench": {
		{"-table 1", []string{"spec-filtered", "timing-scale"}},
		{"-table 2", []string{"adversarial", "detail", "scale"}},
		{"-inject", []string{"scale"}},
		{"-coverage", []string{"scale"}},
		{"-ablate", []string{"scale"}},
		{"-policies", []string{"scale"}},
	},
}

// Flags holds the shared flags' values. Parse fills EngineInfo from
// -engine and Log from -log-level and -log-json.
type Flags struct {
	cmd string
	fs  *flag.FlagSet

	Engine, Dot, TraceOut, Server, Key             string
	NoFilter, Forensics, Explain, NoMerge, ObsJSON bool
	EngineInfo                                     core.EngineInfo

	MetricsAddr, Profile, ProfileOut, LogLevel string
	LogJSON                                    bool
	Heartbeat                                  time.Duration
	Log                                        *slog.Logger
}

// Register declares the selected flags on fs for the command cmd.
func (f *Flags) Register(fs *flag.FlagSet, cmd string, which Set) {
	f.cmd, f.fs = cmd, fs
	str := func(s Set, p *string, name, def, usage string) {
		if which&s != 0 {
			fs.StringVar(p, name, def, usage)
		}
	}
	boolean := func(s Set, p *bool, name, usage string) {
		if which&s != 0 {
			fs.BoolVar(p, name, false, usage)
		}
	}
	str(Engine, &f.Engine, "engine", "optimized", "analysis engine: "+core.EngineNames()+
		" (velodromed: the default for sessions that name none, one of "+core.ProductionEngineNames()+")")
	boolean(NoFilter, &f.NoFilter, "nofilter", "disable the redundant-event fast path (Section 5 filtering)")
	boolean(Forensics, &f.Forensics, "forensics", "enable the event flight recorder (provenance reports on warnings)")
	boolean(Explain, &f.Explain, "explain", "print a provenance report per warning (implies -forensics)")
	str(Dot, &f.Dot, "dot", "", "write the error graphs (dot format) to this file")
	boolean(NoMerge, &f.NoMerge, "no-merge", "disable the merge optimization (Section 4.2)")
	str(TraceOut, &f.TraceOut, "trace-out", "", "write a Chrome trace-event timeline of the run's pipeline stages to this file")
	boolean(ObsJSON, &f.ObsJSON, "obs-json", "emit the obs snapshot (graph stats, warning and filter counts, stage times) as JSON on stderr")
	str(Server, &f.Server, "server", "", "check through a velodromed daemon at this address (host:port or unix:/path) instead of locally")
	str(Key, &f.Key, "key", "", "tenant API key sent in the session header; absent = the daemon's default tenant")
	str(Log, &f.LogLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	boolean(Log, &f.LogJSON, "log-json", "emit log lines as JSON objects")
	str(Metrics, &f.MetricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text or ?format=json) and /debug/pprof/ on this address")
	str(Profile, &f.Profile, "profile", "", "write a pprof profile: cpu, mem or mutex")
	str(Profile, &f.ProfileOut, "profile-out", "", "profile output file (default <kind>.pprof)")
	if which&Heartbeat != 0 {
		fs.DurationVar(&f.Heartbeat, "heartbeat", 0, "print a progress line (events/sec, live nodes, warnings) at this interval")
	}
}

// Parse parses args and holds them to the contract, exiting 2 with
// "<cmd>: <reason>" on a flag the command's modes do not honour, an
// unknown engine or a bad log level. mode runs after parsing and names
// the modes the parsed flags select (a command may run several at once;
// nil skips the check).
func (f *Flags) Parse(args []string, mode func() []string) {
	if f.fs.Parse(args) != nil {
		os.Exit(2) // the flag package has said why
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.cmd, err)
		os.Exit(2)
	}
	if mode != nil {
		if err := Refuse(f.fs, f.cmd, mode()...); err != nil {
			fail(err)
		}
	}
	if f.ProfileOut != "" && f.Profile == "" {
		fail(fmt.Errorf("-profile-out does not apply to a run without -profile"))
	}
	f.Forensics = f.Forensics || f.Explain
	var ok bool
	if f.EngineInfo, ok = core.EngineByName(f.Engine); f.fs.Lookup("engine") != nil && !ok {
		fail(fmt.Errorf("unknown engine %q (want %s)", f.Engine, core.EngineNames()))
	}
	if f.fs.Lookup("log-level") != nil {
		var err error
		if f.Log, err = f.Logger(os.Stderr); err != nil {
			fail(err)
		}
	}
}

// Refuse reports the first flag set on fs that the contract scopes to
// some mode of cmd but that none of the selected modes honours. With no
// mode selected it reports nothing: the command's usage error does.
func Refuse(fs *flag.FlagSet, cmd string, modes ...string) error {
	if len(modes) == 0 {
		return nil
	}
	honoured := map[string]bool{}
	for _, m := range Contract[cmd] {
		if slices.Contains(modes, m.Name) {
			for _, name := range m.Honours {
				honoured[name] = true
			}
		}
	}
	var err error
	fs.Visit(func(fl *flag.Flag) {
		if err != nil || honoured[fl.Name] {
			return
		}
		var only []string
		for _, m := range Contract[cmd] {
			if slices.Contains(m.Honours, fl.Name) {
				only = append(only, m.Name)
			}
		}
		if only != nil {
			err = fmt.Errorf("-%s does not apply to %s (only to %s)", fl.Name, strings.Join(modes, ", "), strings.Join(only, ", "))
		}
	})
	return err
}

// Logger builds a structured logger on w per the -log-* flags: a text
// handler by default, JSON under -log-json, filtering below the
// -log-level threshold. An unknown level is an error.
func (f *Flags) Logger(w io.Writer) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(f.LogLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", f.LogLevel)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler = slog.NewTextHandler(w, opts)
	if f.LogJSON {
		h = slog.NewJSONHandler(w, opts)
	}
	return slog.New(h), nil
}

// Start serves reg, with the extra mounts, on -metrics-addr and begins
// the -profile profile, exiting 2 when either cannot start. stop ends
// the profile and says where it went.
func (f *Flags) Start(reg *obs.Registry, mounts ...obshttp.Mount) (stop func()) {
	if f.MetricsAddr != "" {
		// Every metrics endpoint self-identifies: build version, Go
		// version, the engines this binary ships, and the start time.
		var engines []string
		for _, info := range core.Engines() {
			engines = append(engines, info.Name)
		}
		obs.RegisterBuildInfo(reg, strings.Join(engines, ","))
		_, addr, err := obshttp.Serve(f.MetricsAddr, reg, mounts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: metrics: %v\n", f.cmd, err)
			os.Exit(2)
		}
		f.Log.Info("serving metrics", "url", "http://"+addr.String())
	}
	if f.Profile == "" {
		return func() {}
	}
	path := f.ProfileOut
	if path == "" {
		path = f.Profile + ".pprof"
	}
	end, err := obs.StartProfile(f.Profile, path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: profile: %v\n", f.cmd, err)
		os.Exit(2)
	}
	return func() {
		if err := end(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: profile: %v\n", f.cmd, err)
		} else if f.Log != nil {
			f.Log.Info("wrote profile", "kind", f.Profile, "path", path)
		}
	}
}

// Trace is a command's pipeline tracer: one buffer, named after the
// command, under one root span. Off, its tracer and buffer are nil,
// which span treats as inert, so traced and untraced runs take the
// same path.
type Trace struct {
	Tracer *span.Tracer
	Buf    *span.Buf
	Root   span.SpanID
	f      *Flags
}

// StartTrace opens the tracer under -trace-out, or when on (for a run
// whose snapshot reads the buffer's stage clocks), with a root span
// named root carrying attrs as key, value pairs.
func (f *Flags) StartTrace(on bool, root string, attrs ...string) *Trace {
	t := &Trace{f: f}
	if f.TraceOut == "" && !on {
		return t
	}
	t.Tracer = span.New()
	t.Buf = t.Tracer.Buffer(f.cmd)
	t.Root = t.Buf.Start(root, 0)
	for i := 0; i+1 < len(attrs); i += 2 {
		t.Buf.AttrStr(t.Root, attrs[i], attrs[i+1])
	}
	return t
}

// Now is the tracer's clock (0 when off).
func (t *Trace) Now() int64 { return t.Tracer.Now() }

// Span records a step of the run that began at start as a child of the
// root, with the buffer's clocks for stages laid out beneath it.
func (t *Trace) Span(name string, start int64, stages ...span.Stage) span.SpanID {
	now := t.Tracer.Now()
	id := t.Buf.Emit(name, t.Root, start, now)
	t.Buf.EmitStages(id, start, now, nil, stages...)
	return id
}

// Finish closes the root span and, under -trace-out, writes the
// timeline and says so on stderr.
func (t *Trace) Finish() error {
	if t.f.TraceOut == "" {
		return nil
	}
	t.Buf.End(t.Root)
	if err := t.Tracer.WriteChromeFile(t.f.TraceOut); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: wrote pipeline trace to %s\n", t.f.cmd, t.f.TraceOut)
	return nil
}
