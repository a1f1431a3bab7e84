package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestCheckStreamEmpty checks the zero-op regression: a stream that
// dies before the first operation (crashed producer, empty pipe) must
// be a distinct malformed-input outcome, not a clean serializable
// verdict. The result must be nil — the old contract returned a
// vacuous Serializable=true result alongside the error, and any caller
// that checked the result before the error read a clean verdict off a
// malformed input.
func TestCheckStreamEmpty(t *testing.T) {
	for name, in := range map[string]string{
		"empty":        "",
		"comment-only": "# a producer that wrote its trailer and nothing else\n",
		"blank-lines":  "\n\n\n",
	} {
		res, n, err := CheckStream(trace.NewDecoder(strings.NewReader(in)), Options{})
		if !errors.Is(err, ErrEmptyStream) {
			t.Errorf("%s: err = %v, want ErrEmptyStream", name, err)
		}
		if n != 0 {
			t.Errorf("%s: consumed %d ops, want 0", name, n)
		}
		if res != nil {
			t.Errorf("%s: result = %+v, want nil (no ops were checked)", name, res)
		}
	}
}

// TestCheckStreamDecodeError checks that a malformed tail still returns
// the partial result alongside the error.
func TestCheckStreamDecodeError(t *testing.T) {
	in := "rd(1,x0)\nwr(2,x0)\nnot an op\n"
	res, n, err := CheckStream(trace.NewDecoder(strings.NewReader(in)), Options{})
	if err == nil {
		t.Fatal("want decode error")
	}
	if n != 2 {
		t.Fatalf("consumed %d ops before error, want 2", n)
	}
	if res == nil || !res.Serializable {
		t.Fatalf("partial result = %+v", res)
	}
}

// TestCheckObserver drives Check from a hand-written source: the observer
// must see the checker first, every batch with its size, and the
// operations that arrive together with a terminal error must still be
// checked.
func TestCheckObserver(t *testing.T) {
	batches := []trace.Trace{
		{trace.Beg(1, "inc"), trace.Rd(1, 0)},
		{},
		{trace.Wr(2, 0), trace.Wr(1, 0), trace.Fin(1)},
	}
	boom := errors.New("boom")
	i := 0
	src := func() (Batch, error) {
		b := Batch{Ops: batches[i]}
		i++
		if i == len(batches) {
			return b, boom
		}
		return b, nil
	}
	var events []string
	res, n, err := Check(src, Options{}, &Observer{
		Checker: func(c Checker) { events = append(events, "checker") },
		Batch:   func(ops, skipped int) { events = append(events, fmt.Sprintf("batch %d/%d", ops, skipped)) },
	})
	if err != boom || n != 5 {
		t.Fatalf("Check = %d ops, err %v; want 5 ops and the source's error", n, err)
	}
	if res == nil || res.Serializable || len(res.Warnings) != 1 || res.Skipped != 0 {
		t.Fatalf("result = %+v, want one warning from the final batch", res)
	}
	want := "[checker batch 2/0 batch 3/0]"
	if got := fmt.Sprint(events); got != want {
		t.Errorf("observer saw %s, want %s", got, want)
	}
}
