package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/layout"
)

// TestOpLayout pins what makes a slice of operations cheap to hold: 16
// bytes an op and nothing the collector has to scan.
func TestOpLayout(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 16 {
		t.Errorf("trace.Op is %d bytes, want 16", n)
	}
	if err := layout.PointerFree(reflect.TypeOf(Op{})); err != nil {
		t.Errorf("trace.Op holds a pointer: %v", err)
	}
}

func TestLabelsTable(t *testing.T) {
	tab := NewLabels()
	if tab.Name(0) != "" || tab.Intern("") != 0 || tab.Len() != 1 {
		t.Fatalf("a new table: id 0 is %q, %q is id %d, %d ids", tab.Name(0), "", tab.Intern(""), tab.Len())
	}
	a, b := tab.Intern("Set.add"), tab.Intern("Set.remove")
	if a != 1 || b != 2 || tab.Intern("Set.add") != a || tab.Len() != 3 {
		t.Fatalf("ids %d, %d and %d again: want 1, 2 and 1", a, b, tab.Intern("Set.add"))
	}
	if tab.Name(a) != "Set.add" || tab.Name(b) != "Set.remove" {
		t.Errorf("names %q, %q", tab.Name(a), tab.Name(b))
	}
	if got := tab.Name(7); got != "#7" {
		t.Errorf("an id the table never minted reads %q, want #7", got)
	}
	if got := tab.Name(-1); got != "#-1" {
		t.Errorf("a negative id reads %q, want #-1", got)
	}
	op := Op{Kind: Begin, Thread: 3, Label: b}
	if got := op.Format(tab); got != "begin.Set.remove(3)" {
		t.Errorf("Format = %q", got)
	}
}

// TestLabelsConcurrent: minting and naming from many goroutines at once
// agree on every id (run under -race).
func TestLabelsConcurrent(t *testing.T) {
	tab := NewLabels()
	names := []Label{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				l := names[(g+i)%len(names)]
				if got := tab.Name(tab.Intern(l)); got != l {
					t.Errorf("interned %q, named %q", l, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tab.Len() != len(names)+1 {
		t.Errorf("%d ids for %d names", tab.Len(), len(names))
	}
}

// TestDecoderOwnTable: two decoders with tables of their own mint the
// same ids for different names, and each names its ops through its own;
// NewDecoder's ids index the process-wide table.
func TestDecoderOwnTable(t *testing.T) {
	read := func(text string, tab *Labels) (*Decoder, Trace) {
		t.Helper()
		d := NewDecoderLabels(strings.NewReader(text), tab)
		tr, err := d.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return d, tr
	}
	da, a := read("begin.alpha(1)\nend(1)\n", NewLabels())
	db, b := read("begin.beta(1)\nend(1)\n", NewLabels())
	if a[0].Label != b[0].Label {
		t.Fatalf("fresh tables minted ids %d and %d for their first label", a[0].Label, b[0].Label)
	}
	if got := a[0].Format(da.Labels()); got != "begin.alpha(1)" {
		t.Errorf("first stream's begin renders %q", got)
	}
	if got := b[0].Format(db.Labels()); got != "begin.beta(1)" {
		t.Errorf("second stream's begin renders %q", got)
	}
	d := NewDecoder(strings.NewReader("begin.gamma(2)\n"))
	tr, err := d.ReadAll()
	if err != nil || d.Labels() != ProcessLabels() || tr[0].String() != "begin.gamma(2)" {
		t.Errorf("NewDecoder: table %p (process-wide %p), op %v, err %v", d.Labels(), ProcessLabels(), tr, err)
	}
}
