package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestSessionHeaderRoundTrip checks Encode/ReadSessionHeader inverses
// and that the reader stops exactly at the end of the header line, so
// the op stream that follows — including a binary one whose magic must
// be sniffed — is untouched.
func TestSessionHeaderRoundTrip(t *testing.T) {
	cases := []SessionHeader{
		{},
		{Engine: "basic"},
		{Engine: "optimized", Name: "run-7"},
		{Name: "x"},
	}
	for _, h := range cases {
		if err := h.Validate(); err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		var buf bytes.Buffer
		buf.Write(h.Encode())
		tr := Trace{Beg(1, "m"), Wr(1, 0), Fin(1)}
		if err := MarshalBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(&buf)
		got, err := ReadSessionHeader(br)
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Errorf("round trip: got %+v, want %+v", got, h)
		}
		dec := NewDecoder(br)
		out, err := dec.ReadAll()
		if err != nil {
			t.Fatalf("%+v: ops after header: %v", h, err)
		}
		if len(out) != len(tr) {
			t.Errorf("%+v: decoded %d ops, want %d", h, len(out), len(tr))
		}
	}
}

func TestSessionHeaderErrors(t *testing.T) {
	for _, in := range []string{
		"",                      // no line at all
		"GET / HTTP/1.1\n",      // wrong protocol
		"VELOSESS/1 engine\n",   // field without '='
		"VELOSESS/2 engine=x\n", // wrong version
	} {
		if _, err := ReadSessionHeader(bufio.NewReader(strings.NewReader(in))); err == nil {
			t.Errorf("%q: want error", in)
		}
	}
	bad := SessionHeader{Name: "two words"}
	if err := bad.Validate(); err == nil {
		t.Error("space in name must not validate")
	}
}

func TestVerdictRoundTrip(t *testing.T) {
	cases := []*SessionVerdict{
		{Status: StatusOK, Engine: "optimized", Serializable: true, Ops: 12},
		{Status: StatusOK, Serializable: false, Ops: 5, Warnings: []string{"warning: m is not atomic"}},
		{Status: StatusMalformed, Ops: 0, Error: "empty trace"},
		{Status: StatusBusy, Error: "session limit reached"},
	}
	for _, v := range cases {
		var buf bytes.Buffer
		if err := WriteVerdict(&buf, v); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(buf.String(), "\n"); n != 1 {
			t.Fatalf("verdict must be one line, got %d newlines: %q", n, buf.String())
		}
		got, err := ReadVerdict(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != v.Status || got.Serializable != v.Serializable ||
			got.Ops != v.Ops || got.Error != v.Error || len(got.Warnings) != len(v.Warnings) {
			t.Errorf("round trip: got %+v, want %+v", got, v)
		}
	}
	if _, err := ReadVerdict(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed verdict must error")
	}
}

func TestVerdictExitCode(t *testing.T) {
	cases := []struct {
		v    SessionVerdict
		want int
	}{
		{SessionVerdict{Status: StatusOK, Serializable: true}, 0},
		{SessionVerdict{Status: StatusOK, Serializable: false}, 1},
		{SessionVerdict{Status: StatusMalformed}, 2},
		{SessionVerdict{Status: StatusBusy}, 2},
		{SessionVerdict{Status: StatusError}, 2},
	}
	for _, c := range cases {
		if got := c.v.ExitCode(); got != c.want {
			t.Errorf("%+v: exit %d, want %d", c.v, got, c.want)
		}
	}
}

// FuzzReadSessionHeader: whatever a client sends first, ReadSessionHeader
// must not panic and must fail with a message of bounded length (it
// travels back in the verdict and into the daemon's log); and a header
// that Validates must read back as itself from its Encode.
func FuzzReadSessionHeader(f *testing.F) {
	f.Add([]byte("VELOSESS/1 engine=optimized name=run-7 forensics=1 key=k1\nrd(1,x0)\n"), "aerodrome", "n", "k", true)
	f.Add([]byte("VELOSESS/1 engine\n"), "", "", "", false)
	f.Add([]byte("GET / HTTP/1.1\n"), "basic", "two\vwords", "", false)
	f.Add([]byte("VELOSESS/1 "+strings.Repeat("x", 5000)+"\n"), "", "", strings.Repeat("k", 300), false)
	f.Add([]byte("VELOSESS/1 "+strings.Repeat("\x01", 100)+"\n"), "", "", "", false) // each byte quotes as four
	f.Fuzz(func(t *testing.T, raw []byte, engine, name, key string, forensics bool) {
		if _, err := ReadSessionHeader(bufio.NewReader(bytes.NewReader(raw))); err != nil && len(err.Error()) > 256 {
			t.Fatalf("a %d-byte input gives a %d-byte error", len(raw), len(err.Error()))
		}
		h := SessionHeader{Engine: engine, Name: name, Forensics: forensics, Key: key}
		if h.Validate() != nil {
			return
		}
		got, err := ReadSessionHeader(bufio.NewReader(bytes.NewReader(h.Encode())))
		if err != nil || got != h {
			t.Fatalf("%+v encodes as %q and reads back as %+v, %v", h, h.Encode(), got, err)
		}
	})
}

// endless is a reader of ever more of one byte, and never a newline.
type endless byte

func (e endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e)
	}
	return len(p), nil
}

// TestReadVerdictBoundsItsLine: a line that does not end — a broken or
// hostile daemon's — fails once it passes maxVerdictBytes, having read and
// allocated a small multiple of that, not of what was sent. Reading a
// 32 MiB line through an unbounded ReadString allocated about 176 MiB.
func TestReadVerdictBoundsItsLine(t *testing.T) {
	const sent = 32 << 20
	src := &io.LimitedReader{R: endless('x'), N: sent}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	_, err := ReadVerdict(src)
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Fatalf("a %d-byte line without a newline: %v, want a verdict-too-long error", sent, err)
	}
	read, alloc := sent-src.N, m1.TotalAlloc-m0.TotalAlloc
	t.Logf("read %d bytes of a %d-byte line, allocated %d", read, int64(sent), alloc)
	if read > maxVerdictBytes+4096 {
		t.Errorf("read %d bytes of the line, want at most %d", read, maxVerdictBytes+4096)
	}
	if !raceBuild && alloc > 3*maxVerdictBytes {
		t.Errorf("the call allocated %d bytes, want at most %d", alloc, 3*maxVerdictBytes)
	}
}

// FuzzReadVerdict: whatever line a server sends back, ReadVerdict must
// not panic and must fail with a message of at most 256 bytes (it is
// printed by every client); and what it accepts is a fixed point of
// WriteVerdict → ReadVerdict.
func FuzzReadVerdict(f *testing.F) {
	var whole bytes.Buffer
	WriteVerdict(&whole, &SessionVerdict{Status: StatusOK, Session: "s7", Engine: "optimized", Ops: 9,
		Warnings: []string{"warning: m is not atomic"}, Reports: []json.RawMessage{json.RawMessage(`{"a": [1, "<b>"]}`)},
		Comments: []string{"velo events emitted=9 pruned=0"}, Metrics: map[string]int64{"core_events_filtered_total": 3}})
	f.Add(whole.Bytes())
	f.Add([]byte(`{"status":"malformed","code":"decode-error","ops":1,"error":"trace: op 1: id out of range"}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"ops":1` + strings.Repeat("0", 400) + "}\n"))
	f.Add([]byte(strings.Repeat("\x01", 300) + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, line []byte) {
		v, err := ReadVerdict(bytes.NewReader(line))
		if err != nil {
			if len(err.Error()) > 256 {
				t.Fatalf("a %d-byte line gives a %d-byte error", len(line), len(err.Error()))
			}
			return
		}
		var once, twice bytes.Buffer
		if err := WriteVerdict(&once, v); err != nil {
			t.Fatalf("an accepted verdict does not write: %v", err)
		}
		back, err := ReadVerdict(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("%q reads back as an error: %v", once.Bytes(), err)
		}
		if err := WriteVerdict(&twice, back); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("not a fixed point: %q, then %q (%v)", once.Bytes(), twice.Bytes(), err)
		}
	})
}
