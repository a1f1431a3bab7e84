// Single is a one-goroutine program: its trace is a pure function of the
// source, so the test pins it byte for byte. The golden was produced by
// the shim that looked the goroutine id up on every event; resolving the
// tid once per body must not change a single byte.
package main

import "sync"

var mu sync.Mutex

var count int

var table [4]int

type account struct {
	mu      sync.Mutex
	balance int
}

//velo:atomic
func (a *account) deposit(n int) {
	a.mu.Lock()
	a.balance += n
	a.mu.Unlock()
}

//velo:atomic bump
func bump(k int) {
	mu.Lock()
	defer mu.Unlock()
	table[k&3]++
	count += table[k&3]
}

//velo:atomic
func total() int {
	sum := 0
	for i := range table {
		sum += table[i]
	}
	return sum + count
}

func main() {
	acct := &account{}
	for k := 0; k < 6; k++ {
		bump(k)
		acct.deposit(k)
	}
	if total() == 0 {
		println("unreachable")
	}
	func() {
		mu.Lock()
		count = 0
		mu.Unlock()
	}()
}
