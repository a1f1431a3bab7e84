package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// rawRecord is one binary op record with the thread and zig-zagged target
// written as given, so a test can say ids no Op can hold.
func rawRecord(kind Kind, tid, zz uint64) []byte {
	b := binary.AppendUvarint([]byte{byte(kind)}, tid)
	return binary.AppendUvarint(b, zz)
}

// zz is the encoder's zig-zag of a signed target.
func zz(n int64) uint64 { return uint64(n<<1) ^ uint64(n>>63) }

// outOfRangeIDs are the inputs that used to decode and then index an
// engine's dense tables with a wrapped or negative id: each is a thread,
// lock or fork/join id outside 0 … MaxInt32, or a variable id outside
// int32. Each comes as its text line and as the fields of a binary record.
var outOfRangeIDs = []struct {
	name, text string
	kind       Kind
	tid, zz    uint64
}{
	{"negative thread", "rd(-1,x1)", Read, ^uint64(0), zz(1)},
	{"negative lock", "acq(0,m-5)", Acquire, 0, zz(-5)},
	{"thread past int32", "rd(4294967295,x1)", Read, 1<<32 - 1, zz(1)},
	{"thread 1<<31", "wr(2147483648,x1)", Write, 1 << 31, zz(1)},
	{"negative fork target", "fork(0,t-1)", Fork, 0, zz(-1)},
	{"join target past int32", "join(0,t2147483648)", Join, 0, zz(1 << 31)},
	{"variable past int32", "rd(0,x4294967295)", Read, 0, zz(1<<32 - 1)},
}

// TestOutOfRangeIDsAreDecodeErrors: in both formats, through Next and
// through NextBatch, such an id is an error that names where it stood —
// after the operations in front of it have been handed over, and never
// io.EOF.
func TestOutOfRangeIDsAreDecodeErrors(t *testing.T) {
	good := Trace{Beg(0, "m"), Rd(0, -3)} // a negative variable id is legal
	var prefix opEncoder
	var goodRecs []byte
	for _, op := range good {
		goodRecs = prefix.append(goodRecs, op)
	}
	for _, c := range outOfRangeIDs {
		bad := rawRecord(c.kind, c.tid, c.zz)
		inputs := map[string]struct {
			data []byte
			pos  string
		}{
			"text": {[]byte(good.String() + "\n" + c.text + "\nend(0)\n"), "line 3"},
			"VTS1": {bytes.Join([][]byte{streamMagic[:], goodRecs, bad, {streamEnd, 0}}, nil), "op 2"},
		}
		for format, in := range inputs {
			check := func(how string, got Trace, err error) {
				t.Helper()
				if err == nil || errors.Is(err, io.EOF) {
					t.Fatalf("%s, %s via %s: err = %v, want a decode error", c.name, format, how, err)
				}
				if !strings.Contains(err.Error(), in.pos) || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s, %s via %s: %q does not say %q out of range", c.name, format, how, err, in.pos)
				}
				if got.String() != good.String() {
					t.Errorf("%s, %s via %s: ops before the error %v, want %v", c.name, format, how, got, good)
				}
			}
			var one Trace
			dec := NewDecoder(bytes.NewReader(in.data))
			for {
				op, err := dec.Next()
				if err != nil {
					check("Next", one, err)
					break
				}
				one = append(one, op)
			}
			batched, err := NewDecoder(bytes.NewReader(in.data)).ReadAll()
			check("NextBatch", batched, err)
		}
	}
}

// TestNegativeVariableRoundTrips pins the other side of the rule: a
// variable id may be negative in every format.
func TestNegativeVariableRoundTrips(t *testing.T) {
	tr := Trace{Rd(0, -1), Wr(3, -1<<31), Rd(1<<31-1, 1<<31-1)}
	var txt bytes.Buffer
	if err := Marshal(&txt, tr); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"text": txt.Bytes(), "VTS1": streamBytes(tr, "")} {
		got, err := ReadAuto(bytes.NewReader(data))
		if err != nil || got.String() != tr.String() {
			t.Errorf("%s: %v, err %v; want %v", name, got, err, tr)
		}
	}
}
