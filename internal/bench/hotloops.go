package bench

import "repro/internal/rr"

// The hot-loop suite models the steady-state behaviour Section 5's
// redundant-event filtering is aimed at: long-running programs spend most
// of their trace in loops that re-access the same shared locations —
// spinning on a flag, scanning a shared table, bumping an accumulator,
// polling a queue head — and almost none of those repeats can add a new
// happens-before edge. The Table 1/2 workloads above reproduce the
// paper's synchronization *idioms* on short traces dense with
// violations; this group reproduces its *event mix*: violation-free,
// loop-dominated traffic where redundant events are the common case.
// They are kept out of All() so the Table 1/2 reproductions are
// untouched; the filter differential and the conformance matrix run both.

const (
	hotReaders = 3
	hotTable   = 8
)

// spinread: readers repeatedly re-read a configuration variable written
// once by the coordinator — the "tight loop reading a shared variable"
// pattern. Every re-read after the first conflicts with the same write
// step it already recorded.
var spinreadWorkload = registerHot(&Workload{
	Name:      "spinread",
	Desc:      "readers spin on a coordinator-written flag",
	JavaLines: 120,
	Truth: map[string]Truth{
		"SpinRead.poll": Atomic,
	},
	Body: func(t *rr.Thread, p Params) {
		rt := t.Runtime()
		cfg := rt.NewVar("SpinRead.cfg")
		cfg.Store(t, 42)
		var hs []*rr.Handle
		for w := 0; w < hotReaders; w++ {
			hs = append(hs, t.Fork(func(c *rr.Thread) {
				for phase := 0; phase < 4*p.scale(); phase++ {
					c.Atomic("SpinRead.poll", func() {
						for i := 0; i < 50; i++ {
							cfg.Load(c)
						}
					})
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	},
})

// scanloop: each worker's atomic method sweeps its own stripe of a
// shared table several times, reading and rewriting each field — the
// shape of an in-place normalization or relaxation pass. After the first
// sweep of a transaction, every further field access is a repeat, and
// because repeats are filtered the thread's step also stays unchanged,
// so later sweeps hit the per-variable decision cache across all eight
// fields.
var scanloopWorkload = registerHot(&Workload{
	Name:      "scanloop",
	Desc:      "atomic read-rewrite sweeps over per-worker table stripes",
	JavaLines: 150,
	Truth: map[string]Truth{
		"ScanLoop.sweep": Atomic,
	},
	Body: func(t *rr.Thread, p Params) {
		rt := t.Runtime()
		var hs []*rr.Handle
		for w := 0; w < hotReaders; w++ {
			stripe := make([]*rr.Var, hotTable)
			for i := range stripe {
				stripe[i] = rt.NewVar("ScanLoop.row" + string(rune('A'+w)) + string(rune('0'+i)))
			}
			hs = append(hs, t.Fork(func(c *rr.Thread) {
				for phase := 0; phase < 2*p.scale(); phase++ {
					c.Atomic("ScanLoop.sweep", func() {
						for round := 0; round < 8; round++ {
							for i := 0; i < hotTable; i++ {
								x := stripe[i].Load(c)
								stripe[i].Store(c, x/2+1)
							}
						}
					})
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	},
})

// rmwloop: per-thread accumulators bumped in a tight read-modify-write
// loop inside one atomic block — thread-local steady state, every access
// after the first pair redundant.
var rmwloopWorkload = registerHot(&Workload{
	Name:      "rmwloop",
	Desc:      "thread-local accumulator read-modify-write loops",
	JavaLines: 100,
	Truth: map[string]Truth{
		"RmwLoop.accumulate": Atomic,
	},
	Body: func(t *rr.Thread, p Params) {
		rt := t.Runtime()
		var hs []*rr.Handle
		for w := 0; w < hotReaders; w++ {
			slot := rt.NewVar("RmwLoop.slot")
			hs = append(hs, t.Fork(func(c *rr.Thread) {
				for phase := 0; phase < 4*p.scale(); phase++ {
					c.Atomic("RmwLoop.accumulate", func() {
						for i := 0; i < 40; i++ {
							x := slot.Load(c)
							slot.Store(c, x+1)
						}
					})
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	},
})

// pollqueue: non-transactional polling of a queue-head pointer — the
// outside-transaction loop whose unary transactions all merge into the
// thread's previous node.
var pollqueueWorkload = registerHot(&Workload{
	Name:      "pollqueue",
	Desc:      "non-transactional polling of a shared queue head",
	JavaLines: 110,
	Truth: map[string]Truth{
		"PollQueue.drain": Atomic,
	},
	Body: func(t *rr.Thread, p Params) {
		rt := t.Runtime()
		head := rt.NewVar("PollQueue.head")
		head.Store(t, 1)
		var hs []*rr.Handle
		for w := 0; w < hotReaders; w++ {
			hs = append(hs, t.Fork(func(c *rr.Thread) {
				for phase := 0; phase < 2*p.scale(); phase++ {
					for i := 0; i < 60; i++ {
						head.Load(c)
					}
					c.Atomic("PollQueue.drain", func() {
						head.Load(c)
					})
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	},
})

// logbuffer: a writer transaction that overwrites its output slot many
// times before publishing — repeated conflicting writes against the same
// recorded reader steps.
var logbufferWorkload = registerHot(&Workload{
	Name:      "logbuffer",
	Desc:      "transactions repeatedly overwriting a log slot",
	JavaLines: 130,
	Truth: map[string]Truth{
		"LogBuffer.flush": Atomic,
	},
	Body: func(t *rr.Thread, p Params) {
		rt := t.Runtime()
		var hs []*rr.Handle
		for w := 0; w < hotReaders; w++ {
			slot := rt.NewVar("LogBuffer.slot" + string(rune('A'+w)))
			slot.Store(t, -1)
			hs = append(hs, t.Fork(func(c *rr.Thread) {
				for phase := 0; phase < 4*p.scale(); phase++ {
					c.Atomic("LogBuffer.flush", func() {
						for i := 0; i < 50; i++ {
							slot.Store(c, int64(i))
						}
					})
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	},
})

// servermix: the composite server tick — poll outside a transaction,
// then an atomic handler that scans shared state and bumps a private
// counter, with a lock-protected publish every few ticks.
var servermixWorkload = registerHot(&Workload{
	Name:      "servermix",
	Desc:      "server tick loop: poll, scan, accumulate, publish",
	JavaLines: 200,
	Truth: map[string]Truth{
		"ServerMix.tick":    Atomic,
		"ServerMix.publish": Atomic,
	},
	Body: func(t *rr.Thread, p Params) {
		rt := t.Runtime()
		state := make([]*rr.Var, hotTable)
		for i := range state {
			state[i] = rt.NewVar("ServerMix.state" + string(rune('0'+i)))
			state[i].Store(t, int64(i))
		}
		inbox := rt.NewVar("ServerMix.inbox")
		inbox.Store(t, 1)
		pubLock := rt.NewMutex("ServerMix.pubLock")
		published := rt.NewVar("ServerMix.published")
		var hs []*rr.Handle
		for w := 0; w < hotReaders; w++ {
			local := rt.NewVar("ServerMix.local" + string(rune('A'+w)))
			hs = append(hs, t.Fork(func(c *rr.Thread) {
				for phase := 0; phase < 2*p.scale(); phase++ {
					for i := 0; i < 15; i++ {
						inbox.Load(c)
					}
					c.Atomic("ServerMix.tick", func() {
						for round := 0; round < 2; round++ {
							for i := 0; i < hotTable; i++ {
								state[i].Load(c)
							}
						}
						for i := 0; i < 40; i++ {
							x := local.Load(c)
							local.Store(c, x+1)
						}
					})
					if phase%4 == 3 {
						c.Atomic("ServerMix.publish", func() {
							pubLock.With(c, func() {
								x := published.Load(c)
								published.Store(c, x+1)
							})
						})
					}
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	},
})

var hotRegistry []*Workload

func registerHot(w *Workload) *Workload {
	hotRegistry = append(hotRegistry, w)
	return register(w)
}

// Hot returns the hot-loop redundancy suite (not part of All()).
func Hot() []*Workload {
	out := make([]*Workload, len(hotRegistry))
	copy(out, hotRegistry)
	return out
}
