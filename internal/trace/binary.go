package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace encoding, for recording long executions where the text
// format's size and parse cost matter (a multiset run at scale 100 is
// about a million events). Layout:
//
//	magic "VTR1" (4 bytes)
//	count uvarint
//	per op: kind byte, thread uvarint, target uvarint (zig-zag),
//	        label length uvarint + bytes (Begin only)
//
// Labels are interned: the low bit of the length marks a back-reference
// to a previously seen label index, so repeated method names cost two
// bytes after their first occurrence. The wire index is the stream's own;
// the decoder maps it to an id in its Labels table, and the encoders
// name an op's id through the process-wide table.
//
// A producer that does not know its length in advance — the runtime shim
// of an instrumented program — writes the streaming variant instead:
//
//	magic "VTS1" (4 bytes)
//	per op: exactly as above
//	end record: byte 0xFF, trailer length uvarint + bytes
//
// There is no count; the end record closes the stream, and its trailer
// text (the shim's "velo events emitted=N pruned=M") becomes the
// Decoder's one comment. A stream that reaches EOF before its end
// record, or carries bytes after it, is a decode error and never a
// clean EOF: unlike text, a cut is detectable from the bytes alone.

var (
	binaryMagic = [4]byte{'V', 'T', 'R', '1'}
	streamMagic = [4]byte{'V', 'T', 'S', '1'}
)

const (
	// streamEnd opens the end record; no operation kind has this value.
	streamEnd = 0xFF
	// maxLabelBytes and maxTrailerBytes bound the two length-prefixed
	// strings a binary stream can make the decoder allocate.
	maxLabelBytes   = 4096
	maxTrailerBytes = 4096
	// maxStreamLabelBytes bounds the labels one stream may introduce,
	// each counting its length plus one: past it the next new label is a
	// decode error, in text as in binary, so a session's label table
	// stays within the text decoder's line bound however many distinct
	// names a client sends.
	maxStreamLabelBytes = 1 << 20
)

// opEncoder appends operations in the per-op record both binary
// variants share, naming Begin labels through the process-wide table.
type opEncoder struct {
	labelIdx map[LabelID]uint64
}

func (e *opEncoder) append(b []byte, op Op) []byte {
	b = append(b, byte(op.Kind))
	b = binary.AppendUvarint(b, uint64(op.Thread))
	// Zig-zag so negative targets (never produced, but legal in the
	// struct) stay compact.
	b = binary.AppendUvarint(b, uint64(uint32(op.Target<<1)^uint32(op.Target>>31)))
	if op.Kind != Begin {
		return b
	}
	if idx, ok := e.labelIdx[op.Label]; ok {
		return binary.AppendUvarint(b, idx<<1|1)
	}
	if e.labelIdx == nil {
		e.labelIdx = map[LabelID]uint64{}
	}
	e.labelIdx[op.Label] = uint64(len(e.labelIdx))
	l := processLabels.Name(op.Label)
	b = binary.AppendUvarint(b, uint64(len(l))<<1)
	return append(b, l...)
}

// marshalOps writes head, then every operation's record, then tail.
func marshalOps(w io.Writer, head []byte, tr Trace, tail []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(head); err != nil {
		return err
	}
	var enc opEncoder
	var rec []byte
	for _, op := range tr {
		rec = enc.append(rec[:0], op)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	if _, err := bw.Write(tail); err != nil {
		return err
	}
	return bw.Flush()
}

// MarshalBinary writes the trace in the binary format.
func MarshalBinary(w io.Writer, tr Trace) error {
	head := binary.AppendUvarint(binaryMagic[:], uint64(len(tr)))
	return marshalOps(w, head, tr, nil)
}

// MarshalStream writes the trace in the streaming binary format, as the
// runtime shim does: no count, and an end record carrying trailer.
func MarshalStream(w io.Writer, tr Trace, trailer string) error {
	if len(trailer) > maxTrailerBytes {
		return fmt.Errorf("trace: trailer of %d bytes exceeds %d", len(trailer), maxTrailerBytes)
	}
	tail := binary.AppendUvarint([]byte{streamEnd}, uint64(len(trailer)))
	return marshalOps(w, streamMagic[:], tr, append(tail, trailer...))
}

// UnmarshalBinary reads a trace in either variant of the binary format.
func UnmarshalBinary(r io.Reader) (Trace, error) {
	d := NewDecoder(r)
	if err := d.sniff(); err != nil {
		return nil, err
	}
	if d.mode < modeBinary {
		return nil, errors.New("trace: bad magic: not a binary trace")
	}
	return d.readAll()
}

// truncatedMagic reports a format-level error when a stream ended
// mid-way through a binary magic: head is a short Peek result that is a
// non-empty proper prefix of "VTR1" or "VTS1". Without this check the
// sniff in ReadAuto and Decoder.Next would fall through to text mode and
// a 2-byte stub of a binary trace would surface as a baffling "line 1"
// parse error — or, worse, as an empty-but-clean text trace.
func truncatedMagic(head []byte) error {
	if len(head) == 0 || len(head) >= len(binaryMagic) {
		return nil
	}
	for _, magic := range [][4]byte{binaryMagic, streamMagic} {
		if bytes.HasPrefix(magic[:], head) {
			return fmt.Errorf("trace: truncated binary trace: stream ended at byte offset %d, inside the %q magic header", len(head), magic)
		}
	}
	return nil
}

// ReadAuto decodes a trace in either format, sniffing the binary magic.
func ReadAuto(r io.Reader) (Trace, error) { return NewDecoder(r).readAll() }
