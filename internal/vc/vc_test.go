package vc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// Clock is the reference model Dense is checked against: a vector
// clock as a map from thread to logical time. The zero value is the
// all-zeros clock.
//
// Representation invariant: a component is zero iff it is absent from the
// map. Every operation maintains this canonical form, so explicit-zero
// and absent components can never diverge under Copy, Join, LessEq,
// Equal or String — Set(t, 0) removes the entry rather than storing 0.
type Clock struct {
	times map[trace.Tid]uint64
}

// New returns an empty (all-zeros) clock.
func New() *Clock { return &Clock{} }

// Get returns the component for thread t.
func (c *Clock) Get(t trace.Tid) uint64 {
	if c == nil || c.times == nil {
		return 0
	}
	return c.times[t]
}

// Set assigns the component for thread t. Setting zero removes the
// entry, keeping the representation canonical (absent ≡ zero).
func (c *Clock) Set(t trace.Tid, v uint64) {
	if v == 0 {
		delete(c.times, t) // delete on a nil map is a no-op
		return
	}
	if c.times == nil {
		c.times = map[trace.Tid]uint64{}
	}
	c.times[t] = v
}

// Tick increments thread t's component and returns the new value.
func (c *Clock) Tick(t trace.Tid) uint64 {
	v := c.Get(t) + 1
	c.Set(t, v)
	return v
}

// Join merges other into c pointwise (c := c ⊔ other).
func (c *Clock) Join(other *Clock) {
	if other == nil {
		return
	}
	for t, v := range other.times {
		if v > c.Get(t) {
			c.Set(t, v)
		}
	}
}

// Copy returns an independent copy of c.
func (c *Clock) Copy() *Clock {
	out := New()
	if c != nil {
		for t, v := range c.times {
			out.Set(t, v)
		}
	}
	return out
}

// LessEq reports whether c ⊑ other pointwise (c happens-before-or-equals
// other when c is an operation's clock snapshot).
func (c *Clock) LessEq(other *Clock) bool {
	if c == nil {
		return true
	}
	for t, v := range c.times {
		if v > other.Get(t) {
			return false
		}
	}
	return true
}

// Concurrent reports whether neither clock precedes the other.
func (c *Clock) Concurrent(other *Clock) bool {
	return !c.LessEq(other) && !other.LessEq(c)
}

// Equal reports whether the clocks agree on every component. Because
// zeros are never stored, this is a map comparison with no special
// casing for absent-versus-explicit-zero entries.
func (c *Clock) Equal(other *Clock) bool {
	return c.LessEq(other) && other.LessEq(c)
}

// String renders the clock as [t1:3 t2:7].
func (c *Clock) String() string {
	if c == nil || len(c.times) == 0 {
		return "[]"
	}
	var ts []trace.Tid
	for t := range c.times {
		ts = append(ts, t)
	}
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "t%d:%d", t, c.times[t])
	}
	b.WriteByte(']')
	return b.String()
}

func TestZeroClock(t *testing.T) {
	c := New()
	if c.Get(1) != 0 {
		t.Fatal("fresh clock must be zero")
	}
	if c.String() != "[]" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestTickAndGet(t *testing.T) {
	c := New()
	if v := c.Tick(3); v != 1 {
		t.Fatalf("first tick = %d", v)
	}
	if v := c.Tick(3); v != 2 {
		t.Fatalf("second tick = %d", v)
	}
	if c.Get(4) != 0 {
		t.Fatal("other components must stay zero")
	}
}

func TestJoinPointwiseMax(t *testing.T) {
	a, b := New(), New()
	a.Set(1, 5)
	a.Set(2, 1)
	b.Set(2, 7)
	b.Set(3, 2)
	a.Join(b)
	for tid, want := range map[trace.Tid]uint64{1: 5, 2: 7, 3: 2} {
		if got := a.Get(tid); got != want {
			t.Errorf("component %d = %d, want %d", tid, got, want)
		}
	}
}

func TestCopyIsIndependent(t *testing.T) {
	a := New()
	a.Set(1, 3)
	b := a.Copy()
	b.Set(1, 9)
	if a.Get(1) != 3 {
		t.Fatal("copy aliases original")
	}
}

func TestLessEqAndConcurrent(t *testing.T) {
	a, b := New(), New()
	a.Set(1, 1)
	b.Set(1, 2)
	b.Set(2, 1)
	if !a.LessEq(b) || b.LessEq(a) {
		t.Fatal("a ⊑ b expected")
	}
	c := New()
	c.Set(2, 5)
	if !a.Concurrent(c) {
		t.Fatal("a and c are concurrent")
	}
	if a.Concurrent(b) {
		t.Fatal("ordered clocks are not concurrent")
	}
}

func TestStringSorted(t *testing.T) {
	c := New()
	c.Set(2, 7)
	c.Set(1, 3)
	if got := c.String(); got != "[t1:3 t2:7]" {
		t.Fatalf("String = %q", got)
	}
}

func TestQuickJoinIsUpperBound(t *testing.T) {
	f := func(xs, ys [4]uint8) bool {
		a, b := New(), New()
		for i, v := range xs {
			a.Set(trace.Tid(i), uint64(v))
		}
		for i, v := range ys {
			b.Set(trace.Tid(i), uint64(v))
		}
		j := a.Copy()
		j.Join(b)
		return a.LessEq(j) && b.LessEq(j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetZeroDeletes(t *testing.T) {
	c := New()
	c.Set(1, 3)
	c.Set(1, 0)
	if c.String() != "[]" {
		t.Fatalf("zero component should be dropped: %s", c)
	}
	// Setting zero on a fresh clock must not materialize the component
	// (or panic on the nil map).
	d := New()
	d.Set(2, 0)
	if !d.Equal(New()) || d.String() != "[]" {
		t.Fatalf("explicit zero diverged from absent: %s", d)
	}
}

// clockOp is one random mutation applied identically to every clock
// representation under test.
type clockOp struct {
	kind byte // 0 = Set, 1 = Tick, 2 = Join with an earlier snapshot
	tid  trace.Tid
	val  uint64
}

func randOps(rng *rand.Rand, n int) []clockOp {
	ops := make([]clockOp, n)
	for i := range ops {
		ops[i] = clockOp{
			kind: byte(rng.Intn(3)),
			tid:  trace.Tid(rng.Intn(5)),
			// Zero is generated often on purpose: explicit-zero Sets are
			// the canonicality edge the satellite fix pins.
			val: uint64(rng.Intn(4)),
		}
	}
	return ops
}

// TestQuickClockDenseEquivalent drives Clock and Dense through the same
// random operation sequences (including explicit zero Sets and joins
// with stale snapshots) and requires identical observable behavior:
// Get on every component, String, LessEq/Equal/Concurrent against every
// intermediate snapshot.
func TestQuickClockDenseEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, d := New(), &Dense{}
		var cSnaps []*Clock
		var dSnaps []*Dense
		for _, op := range randOps(rng, 40) {
			switch op.kind {
			case 0:
				c.Set(op.tid, op.val)
				d.Set(op.tid, op.val)
			case 1:
				if c.Tick(op.tid) != d.Tick(op.tid) {
					return false
				}
			case 2:
				if len(cSnaps) > 0 {
					i := rng.Intn(len(cSnaps))
					c.Join(cSnaps[i])
					d.Join(dSnaps[i])
				}
			}
			for tid := trace.Tid(0); tid < 6; tid++ {
				if c.Get(tid) != d.Get(tid) {
					return false
				}
			}
			if c.String() != d.String() {
				return false
			}
			cSnaps = append(cSnaps, c.Copy())
			dSnaps = append(dSnaps, d.Copy())
		}
		for i := range cSnaps {
			for j := range cSnaps {
				if cSnaps[i].LessEq(cSnaps[j]) != dSnaps[i].LessEq(dSnaps[j]) ||
					cSnaps[i].Equal(cSnaps[j]) != dSnaps[i].Equal(dSnaps[j]) ||
					cSnaps[i].Concurrent(cSnaps[j]) != dSnaps[i].Concurrent(dSnaps[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickZeroCanonical: a clock that had components explicitly set to
// zero is indistinguishable from one where they were never set — under
// String, LessEq both ways, Equal, and Join in both directions.
func TestQuickZeroCanonical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		withZeros, without := New(), New()
		dWith, dWithout := &Dense{}, &Dense{}
		for i := 0; i < 10; i++ {
			tid := trace.Tid(rng.Intn(4))
			v := uint64(rng.Intn(3))
			withZeros.Set(tid, v)
			dWith.Set(tid, v)
			if v != 0 {
				without.Set(tid, v)
				dWithout.Set(tid, v)
			} else {
				without.Set(tid, 7) // set then clear: forces the delete path
				without.Set(tid, 0)
				dWithout.Set(tid, 7)
				dWithout.Set(tid, 0)
			}
		}
		// The two construction orders end in states that only agree if
		// trailing explicit zeros behave exactly like absent entries.
		probe := New()
		probe.Set(trace.Tid(rng.Intn(4)), uint64(rng.Intn(3)))
		dProbe := &Dense{}
		for tid := trace.Tid(0); tid < 4; tid++ {
			dProbe.Set(tid, probe.Get(tid))
		}
		return withZeros.Equal(without) &&
			withZeros.String() == without.String() &&
			withZeros.LessEq(probe) == without.LessEq(probe) &&
			probe.LessEq(withZeros) == probe.LessEq(without) &&
			dWith.Equal(dWithout) &&
			dWith.String() == dWithout.String() &&
			dWith.LessEq(dProbe) == dWithout.LessEq(dProbe) &&
			dProbe.LessEq(dWith) == dProbe.LessEq(dWithout)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDenseJoinReportsChange pins the Join change signal AeroDrome's
// propagation fixpoint terminates on.
func TestDenseJoinReportsChange(t *testing.T) {
	a, b := &Dense{}, &Dense{}
	b.Set(2, 5)
	if !a.Join(b) {
		t.Fatal("join that grows a component must report change")
	}
	if a.Join(b) {
		t.Fatal("idempotent join must report no change")
	}
	if a.Join(a) {
		t.Fatal("self-join must report no change")
	}
	b.Set(2, 3) // b now strictly below a on every component
	if a.Join(b) {
		t.Fatal("join from a dominated clock must report no change")
	}
}

// TestDenseCopyIntoReuse: CopyInto must not leak stale components when
// the destination shrinks and later regrows into old capacity.
func TestDenseCopyIntoReuse(t *testing.T) {
	var dst Dense
	big := &Dense{}
	big.Set(4, 9)
	big.CopyInto(&dst)
	small := &Dense{}
	small.Set(0, 1)
	small.CopyInto(&dst)
	if dst.Get(4) != 0 {
		t.Fatalf("stale component survived CopyInto: %s", &dst)
	}
	dst.Tick(4) // regrow into the old capacity
	if dst.Get(4) != 1 {
		t.Fatalf("regrown component = %d, want 1", dst.Get(4))
	}
}
