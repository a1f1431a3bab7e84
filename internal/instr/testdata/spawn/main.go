// Spawn starts and joins many short goroutines, the shape of a
// goroutine-per-request server. The shim's goroutine-id table must be
// bounded by the goroutines alive, not by the goroutines ever started.
// liveTids is replaced by a probe the test adds to the generated module.
package main

import "sync"

const spawned = 10000

var liveTids = func() int { return -1 }

var mu sync.Mutex

var served int

func serve() {
	mu.Lock()
	served++
	mu.Unlock()
}

func main() {
	for batch := 0; batch < spawned/100; batch++ {
		var wg sync.WaitGroup
		wg.Add(100)
		for i := 0; i < 100; i++ {
			go func() {
				defer wg.Done()
				serve()
			}()
		}
		wg.Wait()
	}
	println("served", served, "live", liveTids())
}
