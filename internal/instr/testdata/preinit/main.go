// Preinit synchronizes before main: a package-level initializer takes a
// mutex, and init() forks and joins. Both run before anything main could
// set up, so the shim has to be ready by dependency order alone.
package main

import "sync"

var mu sync.Mutex

var seeded int

var seed = compute()

func compute() int {
	mu.Lock()
	defer mu.Unlock()
	seeded++
	return 42
}

func init() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mu.Lock()
		seeded++
		mu.Unlock()
	}()
	wg.Wait()
}

func main() {
	mu.Lock()
	n := seeded
	mu.Unlock()
	println("seed", seed, "seeded", n)
}
