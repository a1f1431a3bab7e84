package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Session protocol: the framing velodromed speaks with its clients. A
// session is one connection carrying one trace:
//
//	client → server   one header line: "VELOSESS/1 engine=optimized name=run7\n"
//	client → server   the operation stream, text or binary (Decoder sniffs),
//	                  terminated by half-closing the write side
//	server → client   one JSON verdict line, then the connection closes
//
// The op stream reuses the existing encodings unchanged, so anything
// that can produce a trace file can speak to the daemon by prepending
// one line. The header is text even when the ops are binary: the
// Decoder's magic sniff happens after the first newline, so the two
// layers never ambiguate.

// SessionMagic is the first token of a session header line.
const SessionMagic = "VELOSESS/1"

// SessionHeader carries per-session options, sent by the client before
// the operation stream.
type SessionHeader struct {
	// Engine selects the analysis variant: "optimized", "basic", or ""
	// for the server's default.
	Engine string
	// Name optionally labels the session for logs and diagnostics. It
	// may not contain spaces, '=' or control characters.
	Name string
	// Forensics asks the server to run the engine with the event flight
	// recorder enabled and attach a provenance report per warning to the
	// verdict. Off by default: forensics costs per-op recording.
	Forensics bool
	// Key is the tenant API key (VELOSESS/1 "key=" extension). An absent
	// key runs the session under the server's default tenant, so legacy
	// clients are unaffected; a key the server's keyfile does not know is
	// rejected before admission (CodeUnknownKey).
	Key string
}

// Encode renders the header as its one-line wire form.
func (h SessionHeader) Encode() []byte {
	var b strings.Builder
	b.WriteString(SessionMagic)
	if h.Engine != "" {
		b.WriteString(" engine=")
		b.WriteString(h.Engine)
	}
	if h.Name != "" {
		b.WriteString(" name=")
		b.WriteString(h.Name)
	}
	if h.Forensics {
		b.WriteString(" forensics=1")
	}
	if h.Key != "" {
		b.WriteString(" key=")
		b.WriteString(h.Key)
	}
	b.WriteByte('\n')
	return []byte(b.String())
}

// Validate checks the header's field syntax (the server additionally
// checks that Engine names a known engine).
func (h SessionHeader) Validate() error {
	for _, f := range []struct{ key, v string }{{"engine", h.Engine}, {"name", h.Name}, {"key", h.Key}} {
		if strings.ContainsFunc(f.v, func(r rune) bool { return r == '=' || unicode.IsSpace(r) || unicode.IsControl(r) }) {
			return fmt.Errorf("trace: session header %s=%s: spaces, '=' and control characters are not allowed", f.key, clip(f.v))
		}
	}
	return nil
}

// ReadSessionHeader parses the header line from br, leaving the reader
// positioned at the first byte of the operation stream. Unknown keys
// are ignored so the header can grow without breaking old servers.
func ReadSessionHeader(br *bufio.Reader) (SessionHeader, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return SessionHeader{}, fmt.Errorf("trace: reading session header: %w", err)
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != SessionMagic {
		return SessionHeader{}, fmt.Errorf("trace: not a session header (want %q first)", SessionMagic)
	}
	var h SessionHeader
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return SessionHeader{}, fmt.Errorf("trace: malformed session header field %s", clip(f))
		}
		switch key {
		case "engine":
			h.Engine = val
		case "name":
			h.Name = val
		case "forensics":
			h.Forensics = val == "1" || val == "true"
		case "key":
			h.Key = val
		}
	}
	return h, nil
}

// clipFrom is as much of a string as clip quotes: every byte quotes as at
// least one, so the first 64 quoted bytes come from the first 64 bytes and
// the rest of a rune that starts among them.
const clipFrom = 64 + utf8.UTFMax

// clip quotes s for an error message, keeping at most 64 bytes of the
// quoted form: what a header or verdict error quotes back stays short
// whatever bytes it was sent.
func clip(s string) string {
	q := strconv.QuoteToASCII(s[:min(len(s), clipFrom)])
	if len(q) > 64 {
		return q[:64] + "..."
	}
	return q
}

// Verdict statuses.
const (
	// StatusOK: the stream decoded cleanly and was checked; consult
	// Serializable and Warnings.
	StatusOK = "ok"
	// StatusMalformed: the stream was empty, truncated or syntactically
	// invalid. Ops counts the operations consumed before the error, and
	// any warnings found in that prefix are still reported.
	StatusMalformed = "malformed"
	// StatusBusy: the server shed the session at its concurrency cap
	// before reading any ops; retry later or against another instance.
	StatusBusy = "busy"
	// StatusError: the server failed internally (e.g. a panic isolated
	// to this session); the trace may or may not have a defect.
	StatusError = "error"
)

// Verdict codes: stable machine-readable refinements of the non-ok
// statuses. Status says which broad outcome class the session hit;
// Code says why, in a form clients and tests can branch on without
// parsing the human-oriented Error string (whose wording may change).
const (
	// CodeBadHeader: the first line was not a parseable VELOSESS/1
	// header; nothing past it was read.
	CodeBadHeader = "bad-header"
	// CodeUnknownEngine: the header named an engine the server's
	// registry does not know. Rejected before a session slot or any
	// engine state was allocated.
	CodeUnknownEngine = "unknown-engine"
	// CodeEmptyStream: the header was fine but the stream ended before
	// the first operation (core.ErrEmptyStream at the daemon).
	CodeEmptyStream = "empty-stream"
	// CodeDecodeError: the op stream broke mid-way; Ops counts the
	// prefix that was checked.
	CodeDecodeError = "decode-error"
	// CodeBusy: shed at the session cap (StatusBusy verdicts).
	CodeBusy = "busy"
	// CodeUnknownKey: the header carried an API key the server's tenant
	// keyfile does not know. Rejected before admission, like bad-header.
	CodeUnknownKey = "unknown-key"
	// CodeQuotaExceeded: the tenant identified by the key is over its
	// session-rate or concurrent-session quota. Distinct from CodeBusy:
	// busy is the whole daemon at capacity, quota-exceeded is this
	// tenant at its own limit while the daemon may be idle.
	CodeQuotaExceeded = "quota-exceeded"
)

// SessionVerdict is the server's one-line JSON reply.
type SessionVerdict struct {
	Status string `json:"status"`
	// Code refines non-ok statuses with a stable machine-readable
	// reason (see the Code* constants). Empty on ok verdicts.
	Code string `json:"code,omitempty"`
	// Session is the server-assigned session id ("s17"), echoed so a
	// client can correlate its verdict with the daemon's logs and the
	// /debug/velo listing. Empty for connections shed before admission.
	Session string `json:"session,omitempty"`
	// Tenant names the tenant the session ran under. Omitted for the
	// default tenant, so legacy keyless sessions see byte-identical
	// verdicts.
	Tenant       string `json:"tenant,omitempty"`
	Engine       string `json:"engine,omitempty"`
	Serializable bool   `json:"serializable"`
	Ops          int64  `json:"ops"`
	// DurationMs is the server-side wall-clock time of the session in
	// milliseconds, header to verdict.
	DurationMs int64    `json:"durationMs"`
	Warnings   []string `json:"warnings,omitempty"`
	// Reports carries one forensic provenance report per entry of
	// Warnings (same order) when the header requested forensics. Each is
	// a raw forensic.Report JSON object; this package keeps it opaque so
	// the wire format does not depend on the engine packages.
	Reports []json.RawMessage `json:"reports,omitempty"`
	// Comments are the Decoder's: the "#" comment lines seen in a text
	// stream, in order, or a binary stream's trailer — instrumented
	// programs report their emission counters this way, and clients
	// cross-check them against Ops.
	Comments []string `json:"comments,omitempty"`
	// Metrics carries per-session engine counters (same names as the
	// daemon-wide /metrics gauges): core_events_filtered_total and
	// graph_edges_memo_hits_total report how much of the stream the
	// redundant-event fast path discarded.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// WriteVerdict writes v as one JSON line.
func WriteVerdict(w io.Writer, v *SessionVerdict) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// maxVerdictBytes bounds one verdict line. A daemon's verdict carries at
// most its warning cap (16 by default) of warnings and reports, and 4 MiB
// of the stream's comments: a line this long is no verdict, and a client
// reads no further.
const maxVerdictBytes = 16 << 20

// ReadVerdict reads one JSON verdict line.
func ReadVerdict(r io.Reader) (*SessionVerdict, error) {
	br := bufio.NewReader(r)
	var buf bytes.Buffer // grows by doubling, where append would by a quarter
	for {
		frag, err := br.ReadSlice('\n')
		if buf.Len()+len(frag) > maxVerdictBytes {
			return nil, fmt.Errorf("trace: verdict longer than %d bytes", maxVerdictBytes)
		}
		buf.Write(frag)
		if err == bufio.ErrBufferFull {
			continue
		}
		if buf.Len() == 0 && err != nil {
			return nil, fmt.Errorf("trace: reading verdict: %w", err)
		}
		break
	}
	line := buf.Bytes()
	var v SessionVerdict
	if err := json.Unmarshal(line, &v); err != nil {
		head := bytes.TrimSpace(line)
		return nil, fmt.Errorf("trace: malformed verdict %s: %s", clip(string(head[:min(len(head), clipFrom)])), clip(err.Error()))
	}
	return &v, nil
}

// ExitCode maps a verdict onto the process exit-status convention the
// CLIs share: 0 serializable, 1 non-serializable, 2 anything that
// prevented a full check (malformed stream, shed session, server
// error). A partial non-serializable prefix still exits 2 — the stream
// was not fully checked, and silent success on truncation is exactly
// the failure mode this code path exists to prevent.
func (v *SessionVerdict) ExitCode() int {
	switch {
	case v.Status == StatusOK && v.Serializable:
		return 0
	case v.Status == StatusOK:
		return 1
	default:
		return 2
	}
}
