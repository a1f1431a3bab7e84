// Renamed imports sync under another name. Its Mutex and WaitGroup
// must become shim wrappers all the same, or n's accesses are pruned
// on lock events that never reach the checker, and the import must go
// once nothing refers to it: an unused renamed import does not compile.
package main

import xs "sync"

var (
	mu xs.Mutex
	wg xs.WaitGroup
	n  int
)

//velo:atomic
func bump() {
	mu.Lock()
	n++
	mu.Unlock()
}

func main() {
	wg.Add(2)
	go func() { defer wg.Done(); bump() }()
	go func() { defer wg.Done(); bump() }()
	wg.Wait()
}
