// Loopvar prints the loop variables its closures and goroutines
// capture. Since Go 1.22 each iteration has its own variable, so it
// prints 0 1 2 three times; under older language semantics the closures
// share one and print 3 3 3. The instrumented build must print what the
// original does.
package main

import (
	"fmt"
	"sort"
	"sync"
)

func main() {
	var fs []func() int
	for i := 0; i < 3; i++ {
		fs = append(fs, func() int { return i })
	}
	for _, f := range fs {
		fmt.Print(f(), " ")
	}
	fmt.Println()

	var names []func() string
	for _, s := range []string{"0", "1", "2"} {
		names = append(names, func() string { return s })
	}
	for _, f := range names {
		fmt.Print(f(), " ")
	}
	fmt.Println()

	var mu sync.Mutex
	var wg sync.WaitGroup
	var got []int
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Ints(got)
	fmt.Println(got)
}
