// Package layout checks the memory layout properties the hot data
// structures rely on. Its one check, PointerFree, is what keeps a slice
// of operations, graph edges or flight-recorder slots "noscan": memory
// the garbage collector never marks through and that a store into needs
// no write barrier. A field that adds a pointer fails the check, and with
// it the tests that pin those types.
package layout

import (
	"fmt"
	"reflect"
)

// PointerFree returns nil when a value of type t is numbers and bools
// only, in every field and array element: no pointer, slice, string,
// map, channel, function or interface. Otherwise it returns an error
// naming the path to the first field that is not.
func PointerFree(t reflect.Type) error { return pointerFree(t, t.String()) }

func pointerFree(t reflect.Type, path string) error {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return nil
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if err := pointerFree(f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%s is a %s", path, t.Kind())
}
