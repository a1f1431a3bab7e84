package trace

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

func streamSampleTrace() Trace {
	return Trace{
		Beg(1, "Set.add"),
		Acq(1, 0),
		Rd(1, 3),
		Wr(1, 3),
		Rel(1, 0),
		Fin(1),
		ForkOp(1, 2),
		Beg(2, "Set.add"),
		Fin(2),
		JoinOp(1, 2),
	}
}

func TestEmitterRoundTrip(t *testing.T) {
	tr := streamSampleTrace()
	var buf bytes.Buffer
	e := NewEmitter(&buf)
	for _, op := range tr {
		e.Emit(op)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), textBytes(tr)) {
		t.Fatalf("Emitter wrote\n%s\nMarshal writes\n%s", buf.Bytes(), textBytes(tr))
	}
	got, err := NewDecoder(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.String() != tr.String() {
		t.Fatalf("round trip mismatch:\n%s\nwant:\n%s", got, tr)
	}
}

func TestDecoderBinary(t *testing.T) {
	tr := streamSampleTrace()
	var buf bytes.Buffer
	if err := MarshalBinary(&buf, tr); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	var got Trace
	for {
		op, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		got = append(got, op)
	}
	if got.String() != tr.String() {
		t.Fatalf("binary stream mismatch:\n%s\nwant:\n%s", got, tr)
	}
	// A second Next after EOF stays EOF.
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next: %v", err)
	}
}

func TestDecoderMatchesReadAuto(t *testing.T) {
	// The streaming decoder and the one-shot reader must agree on both
	// formats.
	tr := streamSampleTrace()
	var text, bin bytes.Buffer
	if err := Marshal(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := MarshalBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"text": text.Bytes(), "binary": bin.Bytes()} {
		auto, err := ReadAuto(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadAuto: %v", name, err)
		}
		dec, err := NewDecoder(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("%s: Decoder: %v", name, err)
		}
		if auto.String() != dec.String() {
			t.Fatalf("%s: decoder disagrees with ReadAuto", name)
		}
	}
}

func TestDecoderErrors(t *testing.T) {
	if _, err := NewDecoder(strings.NewReader("bogus(1)\n")).ReadAll(); err == nil {
		t.Fatal("want parse error")
	}
	// Truncated binary stream.
	tr := streamSampleTrace()
	var bin bytes.Buffer
	if err := MarshalBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	_, err := NewDecoder(bytes.NewReader(bin.Bytes()[:bin.Len()-3])).ReadAll()
	if err == nil {
		t.Fatal("want truncation error")
	}
}

func TestDecoderNoTrailingNewline(t *testing.T) {
	got, err := NewDecoder(strings.NewReader("rd(1,x2)\nwr(2,x2)")).ReadAll()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 2 || got[1].String() != "wr(2,x2)" {
		t.Fatalf("got %v", got)
	}
}

// TestEmitterConcurrent hammers one Emitter from many goroutines: the
// mutex must linearize emissions into a decodable trace with every
// event present exactly once. Run under -race this also guards the
// instrumentation shim's central design assumption (one global emit
// lock) at the library layer.
func TestEmitterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(&buf)
	const threads, per = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(tid Tid) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				e.Emit(Rd(tid, Var(j)))
			}
		}(Tid(i))
	}
	wg.Wait()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(&buf).ReadAll()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != threads*per {
		t.Fatalf("got %d ops, want %d", len(got), threads*per)
	}
	counts := map[Tid]int{}
	for _, op := range got {
		if op.Kind != Read {
			t.Fatalf("unexpected op %v", op)
		}
		counts[op.Thread]++
	}
	for tid, n := range counts {
		if n != per {
			t.Fatalf("thread %d: %d ops, want %d", tid, n, per)
		}
	}
}

// testBuf is the read-buffer size the decoder suites' decoders get; 0 is
// whatever NewDecoder chooses. eachBufSize runs a suite that way and then
// at minDecoderBuf, where a few dozen records fill the buffer, so that a
// small input takes the window through hundreds of refills.
var testBuf int

func testDecoder(r io.Reader) *Decoder {
	if testBuf == 0 {
		return NewDecoder(r)
	}
	return newDecoderSize(r, testBuf, processLabels)
}

func eachBufSize(t *testing.T, suite func(*testing.T)) {
	defer func() { testBuf = 0 }()
	for _, testBuf = range []int{0, minDecoderBuf} {
		t.Run(fmt.Sprintf("buf=%d", testBuf), suite)
	}
}

// bufEdge is where the decoder under test first runs out of buffer on an
// input longer than that.
func bufEdge() int {
	if testBuf == 0 {
		return DecoderBufSize
	}
	return testBuf
}

// decodeBatched drains a Decoder through NextBatch with a fixed buffer
// size, returning the ops and the terminal error (nil on clean EOF).
func decodeBatched(r io.Reader, size int) (Trace, error) {
	dec := testDecoder(r)
	buf := make([]Op, size)
	var tr Trace
	for {
		n, err := dec.NextBatch(buf)
		tr = append(tr, buf[:n]...)
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return tr, err
		}
		if n == 0 {
			return tr, io.ErrNoProgress
		}
	}
}

// decodeRecords drains data through the blocking record-at-a-time code —
// nextText and nextBinary, the only producers of decode errors — without
// the in-place fill that Next and NextBatch put in front of it.
func decodeRecords(data []byte) (Trace, error) {
	d := testDecoder(bytes.NewReader(data))
	if err := d.sniff(); err != nil {
		return nil, err
	}
	next := d.nextBinary
	if d.mode == modeText {
		next = d.nextText
	}
	var tr Trace
	for {
		op, err := next()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return tr, err
		}
		tr = append(tr, op)
	}
}

// hardRecords are binary record sequences the in-place parser must hand
// to the general code or to nextBinary, each with where it stands among
// ordinary ones; they seed FuzzStreamDecode too.
var hardRecords = map[string][]byte{
	"non-minimal-thread": {byte(Read), 0x80, 0x00, 2, byte(Write), 1, 2},
	"non-minimal-target": {byte(Read), 1, 0x80, 0x00, byte(Read), 1, 0x82, 0x80, 0x00, byte(Write), 1, 2},
	"four-byte-target":   append(rawRecord(Read, 1, 1<<21), rawRecord(Write, 1, 1<<21|1)...),
	"five-byte-target":   append(rawRecord(Read, 1, 1<<28), rawRecord(Write, 1, 1<<32-1)...),
	"three-byte-target":  append(rawRecord(Read, 1, 1<<21-1), rawRecord(Acquire, 1, 1<<21-2)...),
	"six-byte-target":    append(rawRecord(Read, 1, 4), rawRecord(Read, 1, 1<<35)...),
	"odd-zigzag-acq":     append(rawRecord(Read, 1, 3), rawRecord(Acquire, 1, 3)...),
	"odd-zigzag-rel-2b":  append(rawRecord(Write, 1, 0x81), rawRecord(Release, 1, 0x81)...),
	"thread-128":         append(rawRecord(Read, 128, 2), rawRecord(Read, 127, 2)...),
	"unknown-kind":       append(rawRecord(Read, 1, 2), 8, 1, 2),
	"begin-backref":      {byte(Begin), 1, 0, 2, 'm', byte(Read), 1, 2, byte(Begin), 2, 0, 1, byte(End), 2, 0, byte(Begin), 2, 0, 3},
}

// cutReaders deliver a stream whole, in halves and a byte at a time, so
// that records straddle every refill of the decoder's buffer.
var cutReaders = map[string]func(io.Reader) io.Reader{
	"whole": func(r io.Reader) io.Reader { return r }, "half": iotest.HalfReader, "byte": iotest.OneByteReader,
}

// straddler returns records laid out so that one of five bytes starts two
// bytes short of the decoder's first buffer edge, behind a header of the
// given length.
func straddler(header int) []byte {
	var b []byte
	edge := bufEdge()
	for (edge-2-header-len(b))%3 != 0 {
		b = append(b, rawRecord(Read, 1, 0x80)...) // four bytes
	}
	for header+len(b) < edge-2 {
		b = append(b, rawRecord(Write, 2, 6)...)
	}
	b = append(b, rawRecord(Read, 3, 1<<14)...) // five bytes, across the edge
	return append(b, rawRecord(Write, 3, 8)...)
}

// TestNextBatchMatchesNext is the in-place fill's differential: for
// both encodings, every batch size, readers that deliver whole, half and
// byte at a time (so records straddle every refill), every truncation of
// the binary corpus and of the records the fill must pass on, Next and
// NextBatch yield exactly the ops and the terminal error text of the
// blocking record-at-a-time code.
func TestNextBatchMatchesNext(t *testing.T) { eachBufSize(t, testNextBatchMatchesNext) }

func testNextBatchMatchesNext(t *testing.T) {
	stream := streamBytes(truncCorpus(), truncTrailer)
	inputs := map[string][]byte{
		"text":          []byte("# head\n\n" + string(textBytes(benchTrace(300))) + "# velo events emitted=300\n"),
		"stream":        streamBytes(benchTrace(300), "velo events emitted=300 pruned=0"),
		"stream-empty":  streamBytes(nil, ""),
		"stream-padded": append(bytes.Clone(stream), 0),
		"no-newline":    []byte("rd(1,x2)\nwr(2,x2)"),
		"parse-error":   []byte("rd(1,x2)\nwr(2,x2)\nbogus(1)\nrd(1,x2)\n"),
		"empty":         nil,
		"comment-only":  []byte("# nothing\n"),
	}
	cuts := func(name string, data []byte, from int) {
		for cut := from; cut < len(data); cut++ {
			inputs[fmt.Sprintf("%s-cut-%d", name, cut)] = data[:cut]
		}
	}
	cuts("stream", stream, 1)
	for name, recs := range hardRecords {
		whole := bytes.Join([][]byte{streamMagic[:], recs, {streamEnd, 0}}, nil)
		inputs[name] = whole
		cuts(name, whole, 5)
	}
	recs := straddler(len(streamMagic))
	inputs["straddle-stream"] = bytes.Join([][]byte{streamMagic[:], recs, {streamEnd, 0}}, nil)
	inputs["straddle-stream-cut"] = inputs["straddle-stream"][:bufEdge()+1]
	for name, data := range inputs {
		want, wantErr := decodeRecords(data)
		check := func(how string, got Trace, err error) {
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s/%s: err %v, record at a time %v", name, how, err, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s: %d ops, record at a time %d", name, how, len(got), len(want))
			}
		}
		got, err := decodeAll(data)
		check("Next", got, err)
		sizes := []int{1, 2, 3, 7, 512, 4096}
		if len(data) > DecoderBufSize {
			sizes = []int{1, 512} // a byte at a time, 64 KiB is slow
		}
		for _, size := range sizes {
			for how, wrap := range cutReaders {
				got, err := decodeBatched(wrap(bytes.NewReader(data)), size)
				check(fmt.Sprintf("size=%d/%s", size, how), got, err)
			}
		}
	}
	if got, _ := decodeRecords(inputs["straddle-stream"]); len(got) < bufEdge()/4 || got[len(got)-2] != Rd(3, 1<<13) {
		t.Errorf("straddle-stream decodes to %d ops ending %v: the input is not what it says", len(got), got[max(0, len(got)-2):])
	}
}

// TestNextBatchDoesNotWaitForAFullBatch is the live-stream property: a
// producer that wrote three ops and then went quiet (no EOF) gets all
// three delivered, in either encoding, instead of the decoder blocking
// on the transport to fill its buffer.
func TestNextBatchDoesNotWaitForAFullBatch(t *testing.T) {
	three := Trace{Beg(1, "m"), Rd(1, 0), Wr(1, 0)}
	stream := streamBytes(three, "")
	for name, data := range map[string][]byte{
		"text":   textBytes(three),
		"stream": stream[:len(stream)-2], // the end record (0xFF, length 0) never arrives
	} {
		pr, pw := io.Pipe()
		go pw.Write(data) // one Write, then silence: the pipe stays open
		type result struct {
			n   int
			err error
		}
		done := make(chan result, 1)
		buf := make([]Op, 4096)
		go func() {
			n, err := NewDecoder(pr).NextBatch(buf)
			done <- result{n, err}
		}()
		select {
		case r := <-done:
			if r.n != 3 || r.err != nil {
				t.Errorf("%s: NextBatch = %d, %v; want the 3 written ops", name, r.n, r.err)
			} else if Trace(buf[:3]).String() != three.String() {
				t.Errorf("%s: decoded %v, want %v", name, Trace(buf[:3]), three)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: NextBatch still blocked after 5s with 3 ops buffered", name)
		}
		pr.Close()
	}
}

// TestNextBatchSteadyStateAllocs extends the decoder's zero-allocation
// property to the batch fill, both encodings.
func TestNextBatchSteadyStateAllocs(t *testing.T) { eachBufSize(t, testNextBatchSteadyStateAllocs) }

func testNextBatchSteadyStateAllocs(t *testing.T) {
	tr := benchTrace(64)
	for name, data := range map[string][]byte{
		"text":   bytes.Repeat(textBytes(tr), 400),
		"stream": streamBytes(repeatOps(tr, 400), ""),
	} {
		d := testDecoder(bytes.NewReader(data))
		buf := make([]Op, 64)
		for i := 0; i < 4; i++ { // warm-up: labels interned, buffers sized
			if _, err := d.NextBatch(buf); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(200, func() {
			if _, err := d.NextBatch(buf); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: steady-state NextBatch allocates %.2f objects/batch, want 0", name, avg)
		}
	}
}

func repeatOps(tr Trace, n int) Trace {
	out := make(Trace, 0, len(tr)*n)
	for i := 0; i < n; i++ {
		out = append(out, tr...)
	}
	return out
}

// TestDecoderBoundsLineLength: a text stream that never sends a newline
// is refused once the line passes maxLineBytes instead of being buffered
// without limit — through Next, NextBatch and the one-shot reader alike.
func TestDecoderBoundsLineLength(t *testing.T) {
	long := "rd(1,x0)\n# " + strings.Repeat("x", maxLineBytes+2*DecoderBufSize)
	d := NewDecoder(strings.NewReader(long))
	if _, err := d.Next(); err != nil {
		t.Fatalf("first op: %v", err)
	}
	if _, err := d.Next(); err == nil || !strings.Contains(err.Error(), "line 2: longer than") {
		t.Errorf("Next on an endless line: err = %v, want the line-length error", err)
	}
	if cap(d.lineBuf) > 2*maxLineBytes {
		t.Errorf("spill buffer grew to %d bytes", cap(d.lineBuf))
	}
	if _, err := decodeBatched(strings.NewReader(long), 64); err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Errorf("NextBatch: err = %v, want the line-length error", err)
	}
	if _, err := ReadAuto(strings.NewReader(long)); err == nil {
		t.Error("ReadAuto accepted an endless line")
	}
}

// TestDecoderBoundsComments: a text stream may send any number of
// comment lines, and the decoder keeps the leading run of them that fits
// MaxCommentBytes and counts the rest, allocating about what it keeps,
// not what was sent. Keeping every line held 104.9 MB live after 100 MiB
// of comments.
func TestDecoderBoundsComments(t *testing.T) {
	const sent = 32 << 20
	line := "# " + strings.Repeat("c", 1<<10-3) + "\n"
	src := strings.NewReader(strings.Repeat(line, sent/len(line)) + "wr(1,x1)\n")
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	d := NewDecoder(src)
	tr, err := d.ReadAll()
	runtime.ReadMemStats(&m1)
	if err != nil || len(tr) != 1 {
		t.Fatalf("%d ops, err %v; want the one after the comments", len(tr), err)
	}
	comment := len(line) - 3 // what a comment line keeps: its text
	if kept := MaxCommentBytes / comment; len(d.Comments) != kept || d.DroppedComments != sent/len(line)-kept {
		t.Errorf("kept %d comments and dropped %d of %d, want the first %d kept", len(d.Comments), d.DroppedComments, sent/len(line), kept)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%d bytes of comments, allocated %d", sent, alloc)
	if !raceBuild && alloc > 2*MaxCommentBytes {
		t.Errorf("decoding allocated %d bytes, want at most %d", alloc, 2*MaxCommentBytes)
	}
}
