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
// Labels are interned: the high bit of the length marks a back-reference
// to a previously seen label index, so repeated method names cost two
// bytes after their first occurrence.

var binaryMagic = [4]byte{'V', 'T', 'R', '1'}

// MarshalBinary writes the trace in the binary format.
func MarshalBinary(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(tr))); err != nil {
		return err
	}
	labelIdx := map[Label]uint64{}
	for _, op := range tr {
		if err := bw.WriteByte(byte(op.Kind)); err != nil {
			return err
		}
		if err := putUvarint(uint64(op.Thread)); err != nil {
			return err
		}
		// Zig-zag so negative targets (never produced, but legal in the
		// struct) stay compact.
		if err := putUvarint(uint64(uint32(op.Target))<<1 ^ uint64(uint32(op.Target)>>31)); err != nil {
			return err
		}
		if op.Kind == Begin {
			if idx, ok := labelIdx[op.Label]; ok {
				if err := putUvarint(idx<<1 | 1); err != nil {
					return err
				}
			} else {
				labelIdx[op.Label] = uint64(len(labelIdx))
				if err := putUvarint(uint64(len(op.Label)) << 1); err != nil {
					return err
				}
				if _, err := bw.WriteString(string(op.Label)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// UnmarshalBinary reads a trace in the binary format.
func UnmarshalBinary(r io.Reader) (Trace, error) {
	d := NewDecoder(r)
	if err := d.sniff(); err != nil {
		return nil, err
	}
	if d.mode != 2 {
		return nil, errors.New("trace: bad magic: not a binary trace")
	}
	return d.readAll()
}

// truncatedMagic reports a format-level error when a stream ended
// mid-way through the binary magic: head is a short Peek result that is
// a non-empty proper prefix of "VTR1". Without this check the sniff in
// ReadAuto and Decoder.Next would fall through to text mode and a
// 2-byte stub of a binary trace would surface as a baffling "line 1"
// parse error — or, worse, as an empty-but-clean text trace.
func truncatedMagic(head []byte) error {
	if len(head) == 0 || len(head) >= len(binaryMagic) {
		return nil
	}
	if !bytes.HasPrefix(binaryMagic[:], head) {
		return nil
	}
	return fmt.Errorf("trace: truncated binary trace: stream ended at byte offset %d, inside the %q magic header", len(head), binaryMagic)
}

// ReadAuto decodes a trace in either format, sniffing the binary magic.
func ReadAuto(r io.Reader) (Trace, error) { return NewDecoder(r).readAll() }
