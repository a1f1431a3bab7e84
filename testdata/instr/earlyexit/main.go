// Earlyexit leaves through os.Exit, which runs no deferred call: the
// shim's _velo_done never writes the trace's end record, though most of
// the events have long been flushed. Tests use it to assert that every
// consumer refuses such a stream instead of checking the prefix it got.
package main

import (
	"os"
	"sync"
)

var shared int

func hammer() {
	for i := 0; i < 5000; i++ {
		h := shared
		shared = h + 1
	}
}

func main() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hammer()
	}()
	hammer()
	wg.Wait()
	os.Exit(0)
}
