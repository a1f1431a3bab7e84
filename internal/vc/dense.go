// Package vc implements vector clocks (Mattern 1988). Dense is the
// slice-backed clock the AeroDrome engine keeps per transaction.
package vc

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Dense is a slice-backed vector clock indexed directly by thread id —
// the hot-path representation for the AeroDrome engine, where Get/Set
// are array accesses with no hashing and no per-Set allocation. The rr
// substrate allocates thread ids densely from zero, so the slice stays
// small and mostly full.
//
// Components at or beyond len(t) are zero: the slice length is a
// high-water mark, not a canonical form, and every operation treats
// missing and explicit-zero entries identically.
type Dense struct {
	t []uint64
}

// Get returns the component for thread t.
func (d *Dense) Get(t trace.Tid) uint64 {
	if d == nil || t < 0 || int(t) >= len(d.t) {
		return 0
	}
	return d.t[t]
}

// grow extends the backing slice to hold at least n components,
// doubling so repeated single-thread growth stays amortized O(1).
func (d *Dense) grow(n int) {
	if n <= cap(d.t) {
		// Re-extending into previously used capacity (CopyInto truncates
		// without clearing) must not expose stale components.
		old := len(d.t)
		d.t = d.t[:n]
		for i := old; i < n; i++ {
			d.t[i] = 0
		}
		return
	}
	if m := 2 * cap(d.t); n < m {
		n = m
	}
	nt := make([]uint64, n)
	copy(nt, d.t)
	d.t = nt
}

// Set assigns the component for thread t. Setting a component that is
// already (implicitly) zero to zero allocates nothing.
func (d *Dense) Set(t trace.Tid, v uint64) {
	if int(t) >= len(d.t) {
		if v == 0 {
			return
		}
		d.grow(int(t) + 1)
	}
	d.t[t] = v
}

// Tick increments thread t's component and returns the new value.
func (d *Dense) Tick(t trace.Tid) uint64 {
	if int(t) >= len(d.t) {
		d.grow(int(t) + 1)
	}
	d.t[t]++
	return d.t[t]
}

// Join merges other into d pointwise (d := d ⊔ other) and reports
// whether any component of d increased — the signal AeroDrome's
// subscriber propagation terminates on.
func (d *Dense) Join(other *Dense) bool {
	if other == nil || d == other {
		return false
	}
	changed := false
	for i, v := range other.t {
		if v == 0 {
			continue
		}
		if i >= len(d.t) {
			d.grow(i + 1)
		}
		if d.t[i] < v {
			d.t[i] = v
			changed = true
		}
	}
	return changed
}

// Copy returns an independent copy of d.
func (d *Dense) Copy() *Dense {
	out := &Dense{}
	d.CopyInto(out)
	return out
}

// CopyInto overwrites dst with d's components, reusing dst's backing
// slice when it is large enough.
func (d *Dense) CopyInto(dst *Dense) {
	if d == nil {
		dst.t = dst.t[:0]
		return
	}
	dst.t = append(dst.t[:0], d.t...)
}

// LessEq reports whether d ⊑ other pointwise.
func (d *Dense) LessEq(other *Dense) bool {
	if d == nil {
		return true
	}
	for i, v := range d.t {
		if v > other.Get(trace.Tid(i)) {
			return false
		}
	}
	return true
}

// Concurrent reports whether neither clock precedes the other.
func (d *Dense) Concurrent(other *Dense) bool {
	return !d.LessEq(other) && !other.LessEq(d)
}

// Equal reports whether the clocks agree on every component,
// regardless of slice high-water marks.
func (d *Dense) Equal(other *Dense) bool {
	return d.LessEq(other) && other.LessEq(d)
}

// String renders the clock as [t1:3 t2:7], skipping zero components,
// so equal clocks print identically.
func (d *Dense) String() string {
	if d == nil {
		return "[]"
	}
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for i, v := range d.t {
		if v == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "t%d:%d", i, v)
	}
	b.WriteByte(']')
	return b.String()
}
