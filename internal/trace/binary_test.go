package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func sampleTrace() Trace {
	return Trace{
		Beg(1, "Set.add"), Acq(1, 0), Rd(1, 3), Rel(1, 0), Fin(1),
		Beg(2, "Set.add"), Wr(2, 3), Fin(2), // repeated label: interned
		ForkOp(1, 3), Wr(3, 1<<24+5), JoinOp(1, 3), // big target id
		Beg(1, ""), Fin(1), // empty label
	}
}

// TestBinaryRoundTrip: MarshalBinary is MarshalStream with no trailer,
// and what it writes reads back as the trace it was given.
func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := MarshalBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if stream := streamBytes(tr, ""); !bytes.Equal(buf.Bytes(), stream) {
		t.Fatalf("MarshalBinary wrote %x, MarshalStream with no trailer %x", buf.Bytes(), stream)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("length %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Errorf("op %d: %+v != %+v", i, got[i], tr[i])
		}
	}
}

// TestBinaryNegativeTargetRoundTrip pins the 32-bit zig-zag: a 64-bit
// one writes -1 as 0x1FFFFFFFF, which decodes as 0.
func TestBinaryNegativeTargetRoundTrip(t *testing.T) {
	tr := Trace{Rd(1, -1), Wr(2, -1<<31), Rd(1, 1<<31-1)}
	got, err := ReadAuto(bytes.NewReader(streamBytes(tr, "")))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, tr) {
		t.Errorf("read back %v, wrote %v", got, tr)
	}
}

func TestBinaryLabelInterning(t *testing.T) {
	var many Trace
	for i := 0; i < 500; i++ {
		many = append(many, Beg(1, "a.rather.long.method.name"), Fin(1))
	}
	var buf bytes.Buffer
	if err := MarshalBinary(&buf, many); err != nil {
		t.Fatal(err)
	}
	// 1000 ops at ~4 bytes each plus ONE copy of the label.
	if buf.Len() > 6000 {
		t.Errorf("interning ineffective: %d bytes for 1000 ops", buf.Len())
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ProcessLabels().Name(got[998].Label) != "a.rather.long.method.name" {
		t.Error("interned label lost")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		[]byte("WRONGMAGIC"),
		[]byte("VTS1"),                     // no end record
		append([]byte("VTS1"), 0xFF, 0xFF), // end record cut inside its length
		append([]byte("VTS1"), 99, 1, 0),   // unknown kind 99
	}
	for i, c := range cases {
		if _, err := ReadAuto(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: accepted garbage", i)
		}
	}
}

// TestBinaryRefusesRetiredFormat: a trace in the counted binary format,
// "VTR1" and an op count in place of the end record, is refused by name
// before any of it is read, through every entry point, and not handed
// to the text parser as a line 1 it cannot read.
func TestBinaryRefusesRetiredFormat(t *testing.T) {
	counted := append([]byte("VTR1\x02"), streamBytes(Trace{Rd(1, 2), Wr(1, 2)}, "")[4:10]...)
	for name, decode := range map[string]func([]byte) (Trace, error){
		"Next":      decodeAll,
		"NextBatch": func(b []byte) (Trace, error) { return decodeBatched(bytes.NewReader(b), 64) },
		"ReadAuto":  func(b []byte) (Trace, error) { return ReadAuto(bytes.NewReader(b)) },
	} {
		tr, err := decode(counted)
		if err == nil || errors.Is(err, io.EOF) || len(tr) != 0 {
			t.Fatalf("%s: %d ops, err %v; want the input refused", name, len(tr), err)
		}
		if !strings.Contains(err.Error(), `"VTR1"`) || !strings.Contains(err.Error(), "retired counted binary format") {
			t.Errorf("%s: %q does not name the retired format", name, err)
		}
	}
}

func TestBinaryRejectsBadBackref(t *testing.T) {
	// One Begin op with a back-reference to label index 7 (never defined).
	var buf bytes.Buffer
	buf.WriteString("VTS1")
	buf.WriteByte(byte(Begin))    // kind
	buf.WriteByte(1)              // thread
	buf.WriteByte(0)              // target zig-zag
	buf.WriteByte(byte(7<<1 | 1)) // back-ref to 7
	buf.Write([]byte{streamEnd, 0})
	if _, err := ReadAuto(&buf); err == nil || !strings.Contains(err.Error(), "back-reference 7 out of range") {
		t.Fatalf("out-of-range label back-reference: err %v", err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var tr Trace
	for i := 0; i < 5000; i++ {
		t1 := Tid(rng.Intn(8) + 1)
		switch rng.Intn(4) {
		case 0:
			tr = append(tr, Rd(t1, Var(rng.Intn(100))))
		case 1:
			tr = append(tr, Wr(t1, Var(rng.Intn(100))))
		case 2:
			tr = append(tr, Beg(t1, "Some.method"))
		case 3:
			tr = append(tr, Fin(t1))
		}
	}
	var bin, txt bytes.Buffer
	if err := MarshalBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := Marshal(&txt, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*2 > txt.Len() {
		t.Errorf("binary %d bytes not ≪ text %d bytes", bin.Len(), txt.Len())
	}
	got, err := ReadAuto(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != tr.String() {
		t.Fatal("round trip mismatch")
	}
}

func TestBinaryTextEquivalence(t *testing.T) {
	tr := sampleTrace()
	var bin bytes.Buffer
	if err := MarshalBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadAuto(&bin)
	if err != nil {
		t.Fatal(err)
	}
	var txt strings.Builder
	if err := Marshal(&txt, tr); err != nil {
		t.Fatal(err)
	}
	fromTxt, err := ReadAuto(strings.NewReader(txt.String()))
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.String() != fromTxt.String() {
		t.Fatal("binary and text decoders disagree")
	}
}

// TestStreamMatchesTextRoundTrip: what a producer says in the streaming
// binary format reaches the consumer exactly as it would have in text —
// the same operations, and the trailer as the same comment.
func TestStreamMatchesTextRoundTrip(t *testing.T) {
	const trailer = "velo events emitted=300 pruned=7"
	tr := append(benchTrace(300), truncCorpus()...)
	tr = append(tr, Beg(9, ""), Fin(9), Rd(1<<20, 1<<30))

	txt := append(textBytes(tr), "# "+trailer+"\n"...)
	fromText := NewDecoder(bytes.NewReader(txt))
	want, err := fromText.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	fromStream := NewDecoder(bytes.NewReader(streamBytes(tr, trailer)))
	got, err := fromStream.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) || len(want) != len(tr) {
		t.Fatalf("%d ops from the stream, %d from text, %d written", len(got), len(want), len(tr))
	}
	for i := range tr {
		if got[i] != want[i] || got[i] != tr[i] {
			t.Fatalf("op %d: stream %v, text %v, written %v", i, got[i], want[i], tr[i])
		}
	}
	if !slices.Equal(fromStream.Comments, fromText.Comments) {
		t.Errorf("comments: stream %q, text %q", fromStream.Comments, fromText.Comments)
	}
	// The one-shot reader takes it too.
	if tr2, err := ReadAuto(bytes.NewReader(streamBytes(tr, trailer))); err != nil || tr2.String() != tr.String() {
		t.Errorf("ReadAuto on a stream: %d ops, err %v", len(tr2), err)
	}
}

// FuzzStreamDecode: whatever follows the binary magic, the decoder must
// not panic and must not allocate beyond its input (a hostile length is
// refused, not obeyed); and what it accepts is a fixed point of decode →
// MarshalStream, operations and trailer alike. And there is one decoder
// at two speeds: NextBatch, whatever the batch size and however the
// reader cuts the bytes up, yields the operations and the error text of
// the record-at-a-time code.
func FuzzStreamDecode(f *testing.F) {
	whole := streamBytes(truncCorpus(), truncTrailer)
	f.Add(whole[4:])
	f.Add(streamBytes(sampleTrace(), "")[4:])
	f.Add([]byte{}) // the magic alone
	f.Add(whole[4 : len(whole)-3])
	f.Add(append(bytes.Clone(whole[4:]), 0))
	f.Add([]byte{streamEnd, 0})
	f.Add([]byte{streamEnd, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{byte(Begin), 1, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{byte(Acquire), 48, 49, streamEnd, 0})     // a negative target: the encoder's zig-zag was wrong for those
	f.Add([]byte{streamEnd, 0xFF, 0xFF, 0xFF, 0xFF, 0xC1}) // a length cut mid-varint is not a length
	for _, c := range outOfRangeIDs {                      // ids that wrapped or went negative in an engine's tables
		f.Add(append(rawRecord(c.kind, c.tid, c.zz), streamEnd, 0))
	}
	for _, recs := range hardRecords {
		f.Add(append(bytes.Clone(recs), streamEnd, 0))
		f.Add(bytes.Clone(recs)) // with no end record
	}
	f.Add(streamBytes(benchTrace(300), truncTrailer)[4:])                            // longer than the smallest read buffer
	f.Add(append(labelFlood(maxStreamLabelBytes/(maxLabelBytes+1)+1), streamEnd, 0)) // labels past the stream's bound
	f.Fuzz(func(t *testing.T, body []byte) {
		defer func() { testBuf = 0 }()
		data := append(streamMagic[:], body...)
		for _, testBuf = range []int{0, minDecoderBuf} {
			want, wantErr := decodeRecords(data)
			for _, size := range []int{1, 7, 512} {
				for how, wrap := range cutReaders {
					got, err := decodeBatched(wrap(bytes.NewReader(data)), size)
					if !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%d-byte buffer, batches of %d, %s reads: %d ops and %v, record at a time %d ops and %v",
							testBuf, size, how, len(got), err, len(want), wantErr)
					}
				}
			}
		}
		dec := NewDecoder(bytes.NewReader(data))
		tr, err := dec.ReadAll()
		if err != nil {
			if errors.Is(err, io.EOF) {
				t.Fatalf("a refused stream reports an error that unwraps to io.EOF: %v", err)
			}
			return
		}
		// An op takes three bytes at least and a label's text is spelled
		// out where it is introduced, after a length byte: what is kept is
		// bounded by the input.
		if held := dec.labelBytes; held > len(data) || 3*len(tr) > len(data) {
			t.Fatalf("%d input bytes produced %d ops holding %d label bytes", len(data), len(tr), held)
		}
		if len(dec.Comments) > 1 {
			t.Fatalf("comments %q from one end record", dec.Comments)
		}
		trailer := strings.Join(dec.Comments, "")
		enc := streamBytes(tr, trailer)
		dec2 := NewDecoder(bytes.NewReader(enc))
		tr2, err := dec2.ReadAll()
		if err != nil {
			t.Fatalf("re-decoding an accepted stream: %v", err)
		}
		if !slices.Equal(tr, tr2) || !slices.Equal(dec.Comments, dec2.Comments) {
			t.Fatalf("re-encoding changed the stream's content")
		}
		if again := streamBytes(tr2, trailer); !bytes.Equal(enc, again) {
			t.Fatalf("encoding is not a fixed point: %x then %x", enc, again)
		}
	})
}
