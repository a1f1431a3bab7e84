package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
)

// Marshal writes the trace in the textual format: one operation per
// line, in the same syntax produced by Op.String, e.g.
//
//	begin.add(1)
//	rd(1,x0)
//	acq(1,m2)
//	wr(1,x0)
//	rel(1,m2)
//	end(1)
//	fork(1,t2)
//
// Blank lines and lines beginning with '#' are comments on input.
func Marshal(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	for _, op := range tr {
		if _, err := bw.WriteString(op.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseOp parses a single operation in the syntax produced by Op.String,
// interning a Begin's label in the process-wide table.
func ParseOp(s string) (Op, error) {
	op, label, err := parseOpBytes([]byte(s))
	if len(label) > 0 {
		op.Label = processLabels.Intern(Label(label))
	}
	return op, err
}

// asciiSpace matches the characters unicode.IsSpace treats as ASCII
// whitespace — trace lines are pure ASCII, so byte-level trimming is exact.
func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// parseIntBytes is strconv.Atoi restricted to the id magnitudes a trace
// can carry, operating on bytes so the streaming decoder never converts
// a line to a string.
func parseIntBytes(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<40 {
			return 0, false
		}
	}
	if neg {
		n = -n
	}
	return n, true
}

// parseOpBytes is the allocation-free core of ParseOp. A Begin's label
// comes back beside the op, aliasing s, for the caller to intern in its
// table; the op's own Label is left 0. Error paths allocate freely —
// they terminate the stream.
func parseOpBytes(s []byte) (op Op, label []byte, err error) {
	open := bytes.IndexByte(s, '(')
	if open < 0 || len(s) == 0 || s[len(s)-1] != ')' {
		return Op{}, nil, fmt.Errorf("malformed operation %q", s)
	}
	head, args := s[:open], s[open+1:len(s)-1]
	if dot := bytes.IndexByte(head, '.'); dot >= 0 {
		label = head[dot+1:]
		head = head[:dot]
	}
	first := args
	var second []byte
	hasSecond := false
	if comma := bytes.IndexByte(args, ','); comma >= 0 {
		first, second = args[:comma], args[comma+1:]
		hasSecond = true
	}
	tid, ok := parseIntBytes(trimSpaceBytes(first))
	if !ok {
		return Op{}, nil, fmt.Errorf("malformed thread id in %q", s)
	}
	// Thread, lock and fork/join ids index the engines' dense tables, so
	// only 0 … MaxInt32 decodes; a variable id may be negative (the
	// tables keep those in their sparse map) but must fit its int32.
	if tid < 0 || tid > math.MaxInt32 {
		return Op{}, nil, fmt.Errorf("thread id %d out of range in %q", tid, s)
	}
	t := Tid(tid)
	arg := func(prefix byte) (int32, error) {
		if !hasSecond || bytes.IndexByte(second, ',') >= 0 {
			return 0, fmt.Errorf("%s requires two arguments in %q", head, s)
		}
		a := trimSpaceBytes(second)
		if len(a) < 2 || a[0] != prefix {
			return 0, fmt.Errorf("argument of %q must start with %q", s, prefix)
		}
		n, ok := parseIntBytes(a[1:])
		if !ok {
			return 0, fmt.Errorf("malformed argument in %q", s)
		}
		if n > math.MaxInt32 || n < math.MinInt32 || n < 0 && prefix != 'x' {
			return 0, fmt.Errorf("id %c%d out of range in %q", prefix, n, s)
		}
		return int32(n), nil
	}
	switch string(head) { // conversion in switch: no allocation
	case "rd", "wr":
		x, err := arg('x')
		if err != nil {
			return Op{}, nil, err
		}
		if head[0] == 'r' {
			return Rd(t, Var(x)), nil, nil
		}
		return Wr(t, Var(x)), nil, nil
	case "acq", "rel":
		m, err := arg('m')
		if err != nil {
			return Op{}, nil, err
		}
		if head[0] == 'a' {
			return Acq(t, Lock(m)), nil, nil
		}
		return Rel(t, Lock(m)), nil, nil
	case "begin":
		return Op{Kind: Begin, Thread: t}, label, nil
	case "end":
		return Fin(t), nil, nil
	case "fork", "join":
		u, err := arg('t')
		if err != nil {
			return Op{}, nil, err
		}
		if head[0] == 'f' {
			return ForkOp(t, Tid(u)), nil, nil
		}
		return JoinOp(t, Tid(u)), nil, nil
	}
	return Op{}, nil, fmt.Errorf("unknown operation %q", head)
}
