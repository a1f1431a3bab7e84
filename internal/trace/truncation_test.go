package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// truncCorpus is a small trace exercising every encoder feature that
// matters for truncation: labels (fresh and back-referenced), every
// field width, and enough ops that cuts land on every kind of boundary.
func truncCorpus() Trace {
	return Trace{
		Beg(1, "Set.add"),
		Acq(1, 0),
		Rd(1, 3),
		Wr(1, 3),
		Rel(1, 0),
		Fin(1),
		ForkOp(1, 2),
		Beg(2, "Set.add"), // label back-reference
		Wr(2, 3),
		Fin(2),
		JoinOp(1, 2),
	}
}

// decodeAll drains a Decoder, returning the ops and the terminal error
// (nil only on clean EOF).
func decodeAll(data []byte) (Trace, error) {
	dec := testDecoder(bytes.NewReader(data))
	var tr Trace
	for {
		op, err := dec.Next()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return tr, err
		}
		tr = append(tr, op)
	}
}

// TestTruncatedMagicNotText makes sure ordinary short text inputs that
// merely share a first byte with nothing are unaffected, and that a
// true magic prefix is the only trigger.
func TestTruncatedMagicNotText(t *testing.T) {
	// "V" alone is a magic prefix → format error, not a line-1 parse error.
	_, err := decodeAll([]byte("V"))
	if err == nil || !strings.Contains(err.Error(), "truncated binary trace") {
		t.Errorf("lone magic prefix: got %v", err)
	}
	// A short comment-only text trace is not a magic prefix and stays a
	// clean (empty) text decode.
	tr, err := decodeAll([]byte("#x\n"))
	if err != nil || len(tr) != 0 {
		t.Errorf("comment-only: %d ops, err %v", len(tr), err)
	}
	// A short real op decodes fine even though it is under 4 bytes... no
	// op is that short, but a 3-byte non-prefix input must still reach
	// the text parser and fail there, not as a truncated header.
	_, err = decodeAll([]byte("xyz"))
	if err == nil || strings.Contains(err.Error(), "truncated binary trace") {
		t.Errorf("non-magic short input must fall through to text parsing: %v", err)
	}
}

const truncTrailer = "velo events emitted=11 pruned=3"

// TestStreamTruncationCorpus cuts a valid binary trace at every prefix
// length: the end record alone says the stream is whole, and silently
// returning a prefix would hand the checker an incomplete trace with a
// plausible verdict. Every proper prefix must fail, through Next,
// NextBatch and ReadAuto, with an error nobody can take for a clean end
// — not io.EOF itself and not a wrapper of it.
func TestStreamTruncationCorpus(t *testing.T) { eachBufSize(t, testStreamTruncationCorpus) }

func testStreamTruncationCorpus(t *testing.T) {
	full := truncCorpus()
	data := streamBytes(full, truncTrailer)

	dec := testDecoder(bytes.NewReader(data))
	tr, err := dec.ReadAll()
	if err != nil || tr.String() != full.String() {
		t.Fatalf("full decode: %d ops, err %v", len(tr), err)
	}
	if len(dec.Comments) != 1 || dec.Comments[0] != truncTrailer {
		t.Fatalf("comments = %q, want the trailer", dec.Comments)
	}
	if op, err := dec.Next(); err != io.EOF {
		t.Errorf("Next after the end record = %v, %v; want io.EOF again", op, err)
	}

	for cut := 0; cut < len(data); cut++ {
		for name, decode := range map[string]func([]byte) (Trace, error){
			"Next":      decodeAll,
			"NextBatch": func(b []byte) (Trace, error) { return decodeBatched(bytes.NewReader(b), 4) },
			"ReadAuto":  func(b []byte) (Trace, error) { return ReadAuto(bytes.NewReader(b)) },
		} {
			tr, err := decode(data[:cut])
			if cut == 0 {
				// The empty stream is zero text ops; rejecting it is
				// CheckStream's job (ErrEmptyStream), tested in core.
				if err != nil || len(tr) != 0 {
					t.Errorf("%s, cut 0: want clean empty decode, got %d ops, err %v", name, len(tr), err)
				}
				continue
			}
			if err == nil || errors.Is(err, io.EOF) {
				t.Errorf("%s, cut at byte %d of %d: %d ops, err %v; a cut stream must be an error, and not one that wraps io.EOF",
					name, cut, len(data), len(tr), err)
				continue
			}
			if !strings.Contains(err.Error(), "truncated binary") {
				t.Errorf("%s, cut at byte %d: the error does not say the stream was cut: %v", name, cut, err)
			}
			if cut < 4 && !strings.Contains(err.Error(), "byte offset") {
				t.Errorf("%s, cut at byte %d (inside the magic): error must name the byte offset: %v", name, cut, err)
			}
			if !strings.HasPrefix(full.String(), tr.String()) {
				t.Errorf("%s, cut at byte %d: the ops before the error are not a prefix of the trace", name, cut)
			}
		}
	}
}

// TestStreamRejectsWhatFollowsTheEnd: an end record closes the stream.
// Padding, a second stream, or a second end record after it is an error,
// and the trailer of a stream that fails this way is not reported.
func TestStreamRejectsWhatFollowsTheEnd(t *testing.T) {
	data := streamBytes(truncCorpus(), truncTrailer)
	for name, tail := range map[string][]byte{
		"one zero byte":  {0},
		"newline":        []byte("\n"),
		"second end":     {streamEnd, 0},
		"second stream":  data,
		"a text comment": []byte("# velo events emitted=11 pruned=3\n"),
	} {
		dec := NewDecoder(bytes.NewReader(append(bytes.Clone(data), tail...)))
		tr, err := dec.ReadAll()
		if err == nil || !strings.Contains(err.Error(), "bytes follow") {
			t.Errorf("%s after the end record: %d ops, err %v; want the stream refused", name, len(tr), err)
		}
		if len(dec.Comments) != 0 {
			t.Errorf("%s after the end record: trailer %q reported for a refused stream", name, dec.Comments)
		}
	}
}

// TestStreamBoundsLengths: the two lengths a stream can announce are
// checked before anything is allocated for them (a 2^40-byte make would
// not return an error, it would end the process).
func TestStreamBoundsLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, data := range map[string][]byte{
		"trailer": append(append(streamMagic[:], streamEnd), huge...),
		"label":   append(append(streamMagic[:], byte(Begin), 1, 0), huge...),
	} {
		if _, err := decodeAll(data); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("%s length 2^40: err %v, want it refused as too large", name, err)
		}
	}
	// At the bound itself both are accepted.
	long := strings.Repeat("l", maxLabelBytes)
	data := streamBytes(Trace{Beg(1, Label(long)), Fin(1)}, strings.Repeat("t", maxTrailerBytes))
	if tr, err := decodeAll(data); err != nil || len(tr) != 2 || string(ProcessLabels().Name(tr[0].Label)) != long {
		t.Errorf("label and trailer at their bounds: %d ops, err %v", len(tr), err)
	}
	if err := MarshalStream(io.Discard, nil, strings.Repeat("t", maxTrailerBytes+1)); err == nil {
		t.Error("MarshalStream wrote a trailer its own decoder refuses")
	}
}

// labelFlood returns a binary stream body introducing n labels of
// maxLabelBytes each, spelled out every time (never back-referenced):
// what a client that names new blocks without end sends.
func labelFlood(n int) []byte {
	rec := append([]byte{byte(Begin), 1, 0}, binary.AppendUvarint(nil, maxLabelBytes<<1)...)
	rec = append(rec, strings.Repeat("l", maxLabelBytes)...)
	return bytes.Repeat(rec, n)
}

// TestStreamBoundsLabelBytes: the labels one stream introduces cost at
// most maxStreamLabelBytes in all, in either format; the next new one is
// a decode error that names the bound and where it stood, and the ops in
// front of it are still handed over.
func TestStreamBoundsLabelBytes(t *testing.T) {
	fits := maxStreamLabelBytes / (maxLabelBytes + 1) // each label costs its bytes plus one
	bound := "exceed 1048576 bytes"
	bin := append(append(streamMagic[:], labelFlood(fits+1)...), streamEnd, 0)
	tr, err := decodeAll(bin)
	if err == nil || !strings.Contains(err.Error(), bound) || !strings.Contains(err.Error(), fmt.Sprintf("op %d:", fits)) || len(tr) != fits {
		t.Errorf("binary: %d ops, err %v; want %d ops and the bound named at op %d", len(tr), err, fits, fits)
	}
	if _, err := decodeAll(append(append(streamMagic[:], labelFlood(fits)...), streamEnd, 0)); err != nil {
		t.Errorf("binary, %d labels: %v", fits, err)
	}

	// Text names each label once per stream however often it repeats, so
	// the flood is of distinct names.
	var text strings.Builder
	for i := range fits + 1 {
		fmt.Fprintf(&text, "begin.%0*d(1)\nend(1)\n", maxLabelBytes, i)
	}
	fmt.Fprintf(&text, "begin.%0*d(1)\n", maxLabelBytes, 0) // a repeat costs nothing
	tr, err = decodeAll([]byte(text.String()))
	if err == nil || !strings.Contains(err.Error(), bound) || !strings.Contains(err.Error(), fmt.Sprintf("line %d", 2*fits+1)) || len(tr) != 2*fits {
		t.Errorf("text: %d ops, err %v; want %d ops and the bound named at line %d", len(tr), err, 2*fits, 2*fits+1)
	}
}
