package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// This file is the streaming half of the trace format: an Emitter that
// writes text operations one at a time, and a Decoder that reads either
// format back incrementally, so a checker can consume a trace while the
// instrumented program is still producing it (its runtime shim writes
// the binary format of binary.go itself).

// Emitter streams operations in the textual trace format. It is safe for
// concurrent use: instrumented programs emit from many goroutines, and
// serializing emission is what linearizes the observed trace.
type Emitter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// NewEmitter returns an Emitter writing the text format to w.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{bw: bufio.NewWriter(w)}
}

// Emit appends one operation. The first write error is retained and
// reported by Flush; later calls become no-ops.
func (e *Emitter) Emit(op Op) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	if _, err := e.bw.WriteString(op.String()); err != nil {
		e.err = err
		return
	}
	if err := e.bw.WriteByte('\n'); err != nil {
		e.err = err
	}
}

// Flush flushes buffered output and returns the first error seen.
func (e *Emitter) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	e.err = e.bw.Flush()
	return e.err
}

// Decoder reads a trace one operation at a time, sniffing the binary
// magic to pick the format — the streaming counterpart of ReadAuto.
// The text path is allocation-free in steady state: lines are parsed in
// place from the read buffer (spilling into a reused side buffer only
// when a line straddles a buffer boundary) and Begin labels are interned
// so each distinct label is copied out of the buffer exactly once, into
// the decoder's Labels table.
type Decoder struct {
	br     *bufio.Reader
	mode   int // modeUnknown until the first bytes are sniffed
	lineno int

	// win is the window: br's buffered bytes as of the last read through
	// it, of which the in-place fills have parsed the first parsed bytes
	// and br has not been told. NextBatch settles that before any read
	// through br, so a call served from the window costs no Peek and no
	// Discard (nor a pointer store: only parsed moves).
	win    []byte
	parsed int

	// table mints the ids of the labels the stream introduces;
	// labelBytes counts what they cost against maxStreamLabelBytes.
	table      *Labels
	labelBytes int

	// text state
	lineBuf []byte             // spill buffer for lines longer than br's buffer
	intern  map[string]LabelID // the labels this stream has named so far

	// binary state
	labels   []LabelID // by the stream's label index
	binIndex uint64
	ended    bool // the end record has been read

	// Comments collects the "#" comment lines of a text trace, in
	// order, or the end record's trailer of a binary one: the leading
	// run of them that fits MaxCommentBytes. Instrumented programs
	// report their runtime counters (events emitted vs pruned) there,
	// out of band. DroppedComments counts the ones after that run.
	Comments        []string
	DroppedComments int
	commentBytes    int // the bytes of Comments
}

// Decoder modes.
const (
	modeUnknown = iota
	modeText
	modeBinary
)

// DecoderBufSize is a decoder's read buffer, sized so that batched reads
// amortize the syscall per buffer fill across a few thousand typical
// (8-16 byte) trace lines. A decoder handed a *bufio.Reader at least this
// large reads through it as its own, so a caller that reuses one reuses
// the decoder's buffer. minDecoderBuf is the least a source of known
// length gets.
const (
	DecoderBufSize = 64 * 1024
	minDecoderBuf  = 512
)

// MaxCommentBytes bounds the comments a Decoder keeps, in bytes: a text
// stream may send any number of comment lines, and what the daemon echoes
// of them in a verdict must stay within what ReadVerdict reads.
const MaxCommentBytes = 4 << 20

// maxLineBytes bounds one text line, so a stream that never sends a
// newline cannot grow the spill buffer without limit.
const maxLineBytes = 1 << 20

// NewDecoder returns a Decoder reading from r that mints label ids in the
// process-wide table. A source that says how much it holds
// (*bytes.Reader, *bytes.Buffer, *strings.Reader) gets a read buffer no
// larger than that: a short in-memory trace does not pay for, and zero,
// the buffer of a socket, pipe or file.
func NewDecoder(r io.Reader) *Decoder { return NewDecoderLabels(r, processLabels) }

// NewDecoderLabels is NewDecoder minting label ids in labels instead:
// a daemon session's decoder owns a table, so what one tenant's stream
// names is neither kept past the session nor visible to another's.
func NewDecoderLabels(r io.Reader, labels *Labels) *Decoder {
	size := DecoderBufSize
	if l, ok := r.(interface{ Len() int }); ok {
		size = min(size, max(minDecoderBuf, l.Len()))
	}
	return newDecoderSize(r, size, labels)
}

func newDecoderSize(r io.Reader, size int, labels *Labels) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, size), table: labels}
}

// Labels returns the table the decoded ops' label ids index.
func (d *Decoder) Labels() *Labels { return d.table }

// mint interns a label the stream introduces, charging its bytes (and
// one for its introduction, so even empty ones count) against
// maxStreamLabelBytes.
func (d *Decoder) mint(l Label) (LabelID, error) {
	if d.labelBytes += len(l) + 1; d.labelBytes > maxStreamLabelBytes {
		return 0, fmt.Errorf("labels exceed %d bytes in one stream", maxStreamLabelBytes)
	}
	return d.table.Intern(l), nil
}

// Next returns the next operation, or io.EOF after the last one. It is
// NextBatch of one: the decoder has a single entry point.
func (d *Decoder) Next() (Op, error) {
	var one [1]Op
	if n, err := d.NextBatch(one[:]); n == 0 {
		return Op{}, err
	}
	return one[0], nil
}

// sniff picks the format from the stream's first bytes: the binary
// magic, or else text. The retired counted format's magic is refused by
// name rather than parsed as a text line.
func (d *Decoder) sniff() error {
	head, err := d.br.Peek(4)
	if err != nil {
		if merr := truncatedMagic(head); merr != nil {
			return merr
		}
		d.mode = modeText
		return nil
	}
	switch [4]byte(head) {
	case streamMagic:
		d.br.Discard(4)
		d.mode = modeBinary
	case retiredMagic:
		return fmt.Errorf("trace: %q opens the retired counted binary format; traces are text or %q binary", retiredMagic, streamMagic)
	default:
		d.mode = modeText
	}
	return nil
}

// readLine returns the next line (without requiring the trailing
// newline on the final one). The returned slice aliases either the
// bufio buffer or d.lineBuf and is only valid until the next call.
func (d *Decoder) readLine() ([]byte, error) {
	d.lineBuf = d.lineBuf[:0]
	for {
		frag, err := d.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			if len(d.lineBuf) >= maxLineBytes {
				return nil, fmt.Errorf("line %d: longer than %d bytes", d.lineno+1, maxLineBytes)
			}
			d.lineBuf = append(d.lineBuf, frag...)
			continue
		}
		if len(d.lineBuf) == 0 {
			return frag, err // common case: the line sits in the read buffer
		}
		return append(d.lineBuf, frag...), err
	}
}

func (d *Decoder) nextText() (Op, error) {
	for {
		line, err := d.readLine()
		if err != nil && (err != io.EOF || len(line) == 0) {
			return Op{}, err
		}
		op, ok, perr := d.textLine(line)
		if ok || perr != nil {
			return op, perr
		}
		if err == io.EOF {
			return Op{}, io.EOF
		}
	}
}

// textLine parses one line of a text trace. ok is false for the lines
// that carry no operation: blank ones, and comments (which it collects).
func (d *Decoder) textLine(line []byte) (op Op, ok bool, err error) {
	d.lineno++
	trimmed := trimSpaceBytes(line)
	switch {
	case len(trimmed) == 0:
		return Op{}, false, nil
	case trimmed[0] == '#':
		d.comment(trimSpaceBytes(trimmed[1:]))
		return Op{}, false, nil
	}
	op, label, err := parseOpBytes(trimmed)
	if err == nil && len(label) > 0 {
		op.Label, err = d.internText(label)
	}
	if err != nil {
		return Op{}, false, fmt.Errorf("line %d: %w", d.lineno, err)
	}
	return op, true, nil
}

// comment keeps c if it and every comment before it fit
// MaxCommentBytes, and otherwise counts it dropped.
func (d *Decoder) comment(c []byte) {
	if d.DroppedComments == 0 && d.commentBytes+len(c) <= MaxCommentBytes {
		d.commentBytes += len(c)
		d.Comments = append(d.Comments, string(c))
		return
	}
	d.DroppedComments++
}

// internText returns the id of a label a text line names. label may
// alias the read buffer: a label new to the stream is copied out once,
// and a repeat costs a map lookup that allocates nothing.
func (d *Decoder) internText(label []byte) (LabelID, error) {
	if id, ok := d.intern[string(label)]; ok {
		return id, nil
	}
	name := Label(label) // the copy: label may be the read buffer
	id, err := d.mint(name)
	if err != nil {
		return 0, err
	}
	if d.intern == nil {
		d.intern = make(map[string]LabelID)
	}
	d.intern[string(name)] = id
	return id, nil
}

// unzigzag undoes the encoder's zig-zag mapping of signed targets.
func unzigzag(zz uint64) int32 { return int32(uint32(zz>>1) ^ -uint32(zz&1)) }

// idsInRange reports whether a binary record's thread and zig-zagged
// target are ids an engine can take: both fit their int32, and only a
// variable may be negative (odd zig-zag). Thread, lock and fork/join ids
// index dense tables; the text parser holds its input to the same rule.
func idsInRange(kind Kind, tid, zz uint64) bool {
	return tid <= math.MaxInt32 && zz <= math.MaxUint32 &&
		(zz&1 == 0 || kind == Read || kind == Write)
}

// nextBinary decodes one record, blocking for its bytes: an operation,
// or the end record, after which it returns io.EOF. Running out of bytes
// before the end record is an error that cannot be mistaken for io.EOF,
// even through errors.Is.
func (d *Decoder) nextBinary() (op Op, err error) {
	if d.ended {
		return Op{}, io.EOF
	}
	if head, _ := d.br.Peek(1); len(head) == 1 && head[0] == streamEnd {
		return Op{}, d.readEnd()
	}
	defer func() {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("trace: truncated binary stream, no end record: %v", err) // %v: the cause must not unwrap to io.EOF
		}
	}()
	i := d.binIndex
	kind, err := d.br.ReadByte()
	if err != nil {
		return Op{}, fmt.Errorf("trace: op %d: %w", i, err)
	}
	if Kind(kind) > Join {
		return Op{}, fmt.Errorf("trace: op %d: unknown kind %d", i, kind)
	}
	tid, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Op{}, fmt.Errorf("trace: op %d thread: %w", i, err)
	}
	zz, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Op{}, fmt.Errorf("trace: op %d target: %w", i, err)
	}
	if !idsInRange(Kind(kind), tid, zz) {
		return Op{}, fmt.Errorf("trace: op %d: id out of range (%s, thread %d, target %d)", i, Kind(kind), tid, int64(zz>>1)^-int64(zz&1))
	}
	op = Op{Kind: Kind(kind), Thread: Tid(tid), Target: unzigzag(zz)}
	if op.Kind == Begin {
		lv, err := binary.ReadUvarint(d.br)
		if err != nil {
			return Op{}, fmt.Errorf("trace: op %d label: %w", i, err)
		}
		if lv&1 == 1 {
			idx := lv >> 1
			if idx >= uint64(len(d.labels)) {
				return Op{}, fmt.Errorf("trace: op %d: label back-reference %d out of range", i, idx)
			}
			op.Label = d.labels[idx]
		} else {
			n := lv >> 1
			if n > maxLabelBytes {
				return Op{}, fmt.Errorf("trace: op %d: label length %d too large", i, n)
			}
			b := make([]byte, n)
			if _, err := io.ReadFull(d.br, b); err != nil {
				return Op{}, fmt.Errorf("trace: op %d label bytes: %w", i, err)
			}
			if op.Label, err = d.mint(Label(b)); err != nil {
				return Op{}, fmt.Errorf("trace: op %d: %w", i, err)
			}
			d.labels = append(d.labels, op.Label)
		}
	}
	d.binIndex++
	return op, nil
}

// readEnd consumes the end record and its trailer, checks that nothing
// follows, and returns io.EOF.
func (d *Decoder) readEnd() error {
	d.br.Discard(1)
	n, err := binary.ReadUvarint(d.br)
	if err == nil && n > maxTrailerBytes {
		return fmt.Errorf("trace: end record: trailer length %d too large", n)
	}
	var trailer []byte
	if err == nil {
		trailer = make([]byte, n)
		_, err = io.ReadFull(d.br, trailer)
	}
	if err != nil {
		return fmt.Errorf("trace: truncated binary stream, cut inside the end record after %d ops: %v", d.binIndex, err)
	}
	if _, err := d.br.Peek(1); err != io.EOF {
		if err == nil {
			err = errors.New("bytes follow it")
		}
		return fmt.Errorf("trace: end record after %d ops does not close the stream: %v", d.binIndex, err)
	}
	if n > 0 {
		d.comment(trailer)
	}
	d.ended = true
	return io.EOF
}

// NextBatch fills buf with the next operations and returns how many it
// wrote. It first takes what the read buffer already holds, without
// touching the transport; only when that yields nothing does it block
// for one operation (io.EOF after the last), and then again takes what
// the refill brought. A slow live stream is therefore handed on as a
// short batch instead of waiting on the transport for a full one. A
// text parse error is returned together with the operations decoded
// before it; a binary one alone, by the next call.
func (d *Decoder) NextBatch(buf []Op) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if d.mode == modeUnknown {
		if err := d.sniff(); err != nil {
			return 0, err
		}
	}
	n, err := d.fill(buf)
	if n > 0 || err != nil {
		return n, err
	}
	// Hand the reader back what the fills took from its buffer, read one
	// operation through it, and look at what it holds now.
	d.br.Discard(d.parsed)
	d.parsed, d.win = 0, nil
	if d.mode == modeText {
		buf[0], err = d.nextText()
	} else {
		buf[0], err = d.nextBinary()
	}
	if err != nil {
		return 0, err
	}
	d.win, _ = d.br.Peek(d.br.Buffered())
	n, err = d.fill(buf[1:])
	return 1 + n, err
}

// fill decodes, in place, the operations that lie complete in the window,
// and leaves the first that does not for the blocking code.
func (d *Decoder) fill(buf []Op) (int, error) {
	if d.mode == modeText {
		return d.fillText(buf)
	}
	return d.fillBinary(buf), nil
}

// fillText decodes the lines that have their newline in the window.
func (d *Decoder) fillText(buf []Op) (int, error) {
	p := d.win[d.parsed:]
	n, off := 0, 0
	var err error
	for n < len(buf) && err == nil {
		i := bytes.IndexByte(p[off:], '\n')
		if i < 0 {
			break
		}
		var ok bool
		if buf[n], ok, err = d.textLine(p[off : off+i+1]); ok {
			n++
		}
		off += i + 1
	}
	d.parsed += off
	return n, err
}

// fillBinary decodes the records that lie complete in the window. The
// common one — any kind but Begin, a one-byte thread, a target varint of
// up to three bytes — is taken without a call; every other well-formed
// one (longer varints, a Begin naming a label already seen) by the
// general code below it. It stops — consuming nothing of the operation in
// question — at the first one that is incomplete, malformed, out of id
// range, or introduces a new label; nextBinary decodes that one, so
// errors are reported by a single code path.
func (d *Decoder) fillBinary(buf []Op) int {
	p := d.win[d.parsed:]
	n, off := 0, 0
	for n < len(buf) {
		r := p[off:]
		if len(r) >= 5 && r[0] <= byte(Join) && r[0] != byte(Begin) && r[1] < 0x80 {
			zz, size := uint32(r[2]), 3
			if zz >= 0x80 {
				zz, size = zz&0x7f|uint32(r[3])<<7, 4
				if zz >= 1<<14 {
					zz, size = zz&(1<<14-1)|uint32(r[4])<<14, 5
				}
			}
			// A fourth target byte leaves zz >= 1<<21; an odd zig-zag is
			// a negative id, which only a variable may carry.
			if zz < 1<<21 && (zz&1 == 0 || r[0] <= byte(Write)) {
				buf[n] = Op{Kind: Kind(r[0]), Thread: Tid(r[1]), Target: int32(zz>>1) ^ -int32(zz&1)}
				n++
				off += size
				continue
			}
		}
		if len(r) == 0 || Kind(r[0]) > Join {
			break
		}
		tid, a := binary.Uvarint(r[1:])
		if a <= 0 {
			break
		}
		zz, b := binary.Uvarint(r[1+a:])
		if b <= 0 || !idsInRange(Kind(r[0]), tid, zz) {
			break
		}
		size := 1 + a + b
		op := Op{Kind: Kind(r[0]), Thread: Tid(tid), Target: unzigzag(zz)}
		if op.Kind == Begin {
			lv, c := binary.Uvarint(r[size:])
			if c <= 0 || lv&1 == 0 || lv>>1 >= uint64(len(d.labels)) {
				break
			}
			op.Label = d.labels[lv>>1]
			size += c
		}
		buf[n] = op
		n++
		off += size
	}
	d.parsed += off
	d.binIndex += uint64(n)
	return n
}

// ReadAll drains the decoder into a Trace, whose label ids index
// d.Labels(); on an error it also returns the operations decoded before
// it.
func (d *Decoder) ReadAll() (Trace, error) {
	var tr Trace
	for {
		if len(tr) == cap(tr) {
			tr = slices.Grow(tr, 512)
		}
		n, err := d.NextBatch(tr[len(tr):cap(tr)])
		tr = tr[:len(tr)+n]
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return tr, err
		}
	}
}
