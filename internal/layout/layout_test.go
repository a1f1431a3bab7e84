package layout

import (
	"reflect"
	"strings"
	"testing"
)

func TestPointerFree(t *testing.T) {
	type flat struct {
		a int32
		b [2]struct{ c, d uint64 }
		e bool
	}
	if err := PointerFree(reflect.TypeOf(flat{})); err != nil {
		t.Errorf("flat struct: %v", err)
	}
	for _, v := range []any{
		struct{ s string }{},
		struct{ p *int }{},
		struct{ x [1]struct{ b []byte } }{},
		struct{ m map[int]int }{},
		struct{ i any }{},
		struct{ f func() }{},
		struct{ c chan int }{},
	} {
		err := PointerFree(reflect.TypeOf(v))
		if err == nil {
			t.Errorf("%T: reported pointer-free", v)
		} else if !strings.Contains(err.Error(), ".") {
			t.Errorf("%T: %v does not name the field", v, err)
		}
	}
}
