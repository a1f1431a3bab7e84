package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace encoding, for recording long executions where the text
// format's size and parse cost matter (a multiset run at scale 100 is
// about a million events), and the wire format of the runtime shim,
// which does not know its length in advance. Layout:
//
//	magic "VTS1" (4 bytes)
//	per op: kind byte, thread uvarint, target uvarint (zig-zag),
//	        label length uvarint + bytes (Begin only)
//	end record: byte 0xFF, trailer length uvarint + bytes
//
// Labels are interned: the low bit of the length marks a back-reference
// to a previously seen label index, so repeated method names cost two
// bytes after their first occurrence. The wire index is the stream's own;
// the decoder maps it to an id in its Labels table, and the encoder
// names an op's id through the process-wide table.
//
// There is no count; the end record closes the stream, and its trailer
// text (the shim's "velo events emitted=N pruned=M") becomes the
// Decoder's one comment. A stream that reaches EOF before its end
// record, or carries bytes after it, is a decode error and never a
// clean EOF: unlike text, a cut is detectable from the bytes alone.

var (
	streamMagic = [4]byte{'V', 'T', 'S', '1'}
	// retiredMagic opened the counted binary format, an op count in
	// place of the end record. It is read only to be refused by name.
	retiredMagic = [4]byte{'V', 'T', 'R', '1'}
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

// opEncoder appends operations as binary records, naming Begin labels
// through the process-wide table.
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

// MarshalBinary writes the trace in the binary format, with no trailer.
func MarshalBinary(w io.Writer, tr Trace) error { return MarshalStream(w, tr, "") }

// MarshalStream writes the trace in the binary format, as the runtime
// shim does, with an end record carrying trailer.
func MarshalStream(w io.Writer, tr Trace, trailer string) error {
	if len(trailer) > maxTrailerBytes {
		return fmt.Errorf("trace: trailer of %d bytes exceeds %d", len(trailer), maxTrailerBytes)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(streamMagic[:]); err != nil {
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
	tail := binary.AppendUvarint([]byte{streamEnd}, uint64(len(trailer)))
	if _, err := bw.Write(append(tail, trailer...)); err != nil {
		return err
	}
	return bw.Flush()
}

// truncatedMagic reports a format-level error when a stream ended
// mid-way through the binary magic: head is a short Peek result that is
// a non-empty proper prefix of "VTS1". Without this check the sniff
// would fall through to text mode and a 2-byte stub of a binary trace
// would surface as a baffling "line 1" parse error — or, worse, as an
// empty-but-clean text trace.
func truncatedMagic(head []byte) error {
	if len(head) == 0 || len(head) >= len(streamMagic) || !bytes.HasPrefix(streamMagic[:], head) {
		return nil
	}
	return fmt.Errorf("trace: truncated binary trace: stream ended at byte offset %d, inside the %q magic header", len(head), streamMagic)
}

// ReadAuto decodes a whole trace in either format, sniffing the binary
// magic; on an error it returns no trace.
func ReadAuto(r io.Reader) (Trace, error) {
	tr, err := NewDecoder(r).ReadAll()
	if err != nil {
		return nil, err
	}
	return tr, nil
}
