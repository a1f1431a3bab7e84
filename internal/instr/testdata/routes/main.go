// Routes reaches instrumented code by every route the rewriter treats
// differently, so a test can check that each event carries the tid of
// the goroutine that emitted it. Goroutine i touches only cell[i] and the
// one shared lock: in the collected trace, variables and threads must
// pair off one to one.
//
//	goroutine 0  main: direct call, threaded callees three deep, a
//	             function value, a method through an interface, a
//	             deferred call and a deferred literal, a sync.Locker,
//	             the promoted methods of an embedded mutex
//	goroutine 1  go on a named function
//	goroutine 2  go on a literal, which spawns
//	goroutine 3  a nested go on a literal
//	goroutine 4  go on a function value; a sync.Once callback
//	goroutine 5  a time.AfterFunc callback, born in uninstrumented code
package main

import (
	"sync"
	"time"
)

const goroutines = 6

var cell [goroutines]int

// guard is the one shared lock, embedded so Lock and Unlock are promoted.
type guard struct {
	sync.Mutex
}

var shared guard

var wg sync.WaitGroup

var once sync.Once

// touch is only ever called directly: threaded.
func touch(i int) {
	shared.Lock()
	shared.Unlock()
	cell[i]++
}

func one(i int)   { two(i) }
func two(i int)   { three(i) }
func three(i int) { touch(i) }

// byValue is used as a value: it resolves its own tid.
func byValue(i int) {
	touch(i)
	cell[i]++
}

type toucher interface{ Touch(i int) }

type impl struct{}

func (impl) Touch(i int) {
	cell[i]++
	touch(i)
}

func deferred(i int) {
	defer touch(i)
	defer func(k int) {
		cell[k]++
	}(i)
	cell[i]++
}

func viaLocker(l sync.Locker, i int) {
	l.Lock()
	cell[i]++
	l.Unlock()
}

func named(i int) {
	defer wg.Done()
	one(i)
	deferred(i)
}

func main() {
	touch(0)
	one(0)
	f := byValue
	f(0)
	var t toucher = impl{}
	t.Touch(0)
	deferred(0)
	viaLocker(&shared, 0)

	wg.Add(goroutines - 1)
	go named(1)
	go func() {
		defer wg.Done()
		touch(2)
		go func(i int) {
			defer wg.Done()
			touch(i)
			toucher(impl{}).Touch(i)
		}(3)
		f(2)
	}()
	// Launched through a variable: the wrapper still hands the literal a
	// registered goroutine, and the Once callback runs on it.
	g := func() {
		defer wg.Done()
		once.Do(func() {
			touch(4)
		})
		byValue(4)
	}
	go g()
	time.AfterFunc(time.Millisecond, func() {
		defer wg.Done()
		touch(5)
		viaLocker(&shared, 5)
	})
	wg.Wait()
	touch(0)
}
