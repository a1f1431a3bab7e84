// Hotloop is the benchmark's instrumentation target: a loop-heavy,
// violation-free program whose wall time is fixed by its argument, so the
// work it completes (iterations) measures how much the instrumentation
// slows it down. Two workers repeat two atomic methods until the deadline:
//
//   - poll re-reads a flag main wrote before the fork (shared: every read
//     is an event, and a repeat the checker's filter discards);
//   - update bumps a table cell and a running sum under tableMu
//     (lock-protected: the static analysis prunes the accesses and only
//     the acquire/release pair is emitted).
//
// Each atomic method is a single critical section or reads data no worker
// writes, so every interleaving is serializable.
//
//	hotloop <milliseconds>     prints "iterations=<n>"
package main

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

const pollReads = 16

var enabled int

var tableMu sync.Mutex

var table [16]int

var sum int

var totalMu sync.Mutex

var total int

var wg sync.WaitGroup

//velo:atomic
func poll() int {
	seen := 0
	for i := 0; i < pollReads; i++ {
		seen += enabled
	}
	return seen
}

//velo:atomic
func update(k int) {
	tableMu.Lock()
	table[k&15]++
	sum += table[k&15]
	tableMu.Unlock()
}

func report(n int) {
	totalMu.Lock()
	total += n
	totalMu.Unlock()
}

func worker(id int, deadline time.Time) {
	defer wg.Done()
	n := 0
	for {
		if poll() > 0 {
			update(id + n)
		}
		n++
		if n&15 == 0 && !time.Now().Before(deadline) {
			break
		}
	}
	report(n)
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: hotloop <milliseconds>")
		os.Exit(2)
	}
	ms, err := strconv.Atoi(os.Args[1])
	if err != nil || ms <= 0 {
		fmt.Fprintln(os.Stderr, "hotloop: bad duration", os.Args[1])
		os.Exit(2)
	}
	enabled = 1
	deadline := time.Now().Add(time.Duration(ms) * time.Millisecond)
	wg.Add(2)
	go worker(0, deadline)
	go worker(1, deadline)
	wg.Wait()
	totalMu.Lock()
	n := total
	totalMu.Unlock()
	fmt.Printf("iterations=%d\n", n)
}
