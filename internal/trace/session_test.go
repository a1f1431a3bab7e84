package trace

import (
	"bufio"
	"bytes"
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
