package core

import (
	"bytes"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/serial"
	"repro/internal/span"
	"repro/internal/trace"
)

// decodeOps turns fuzz bytes into a well-formed trace: each byte selects
// an action for a small thread/var/lock universe, with begin/end and
// acquire/release balanced by construction.
func decodeOps(data []byte) trace.Trace {
	var tr trace.Trace
	depth := map[trace.Tid]int{}
	held := map[trace.Tid][]trace.Lock{}
	lockBusy := map[trace.Lock]bool{}
	for _, b := range data {
		t := trace.Tid(b%3) + 1
		kind := (b >> 2) % 6
		obj := int32(b>>5) % 2
		switch kind {
		case 0:
			tr = append(tr, trace.Rd(t, trace.Var(obj)))
		case 1:
			tr = append(tr, trace.Wr(t, trace.Var(obj)))
		case 2:
			m := trace.Lock(obj)
			if !lockBusy[m] {
				lockBusy[m] = true
				held[t] = append(held[t], m)
				tr = append(tr, trace.Acq(t, m))
			}
		case 3:
			if hs := held[t]; len(hs) > 0 {
				m := hs[len(hs)-1]
				held[t] = hs[:len(hs)-1]
				lockBusy[m] = false
				tr = append(tr, trace.Rel(t, m))
			}
		case 4:
			depth[t]++
			tr = append(tr, trace.Beg(t, trace.Label("blk")))
		case 5:
			if depth[t] > 0 {
				depth[t]--
				tr = append(tr, trace.Fin(t))
			}
		}
	}
	return tr
}

// checkSplit is CheckTrace with the trace handed to the driver in random
// batches of 1…32 operations (the inputs here are at most 128 long).
func checkSplit(tr trace.Trace, opts Options, rng *rand.Rand) *Result {
	res, _, _ := drive(func() (Batch, error) {
		n := min(1+rng.Intn(32), len(tr))
		b := Batch{Ops: tr[:n]}
		if tr = tr[n:]; len(tr) == 0 {
			return b, io.EOF
		}
		return b, nil
	}, opts, nil)
	return res
}

// positions lists where a result's warnings stand.
func positions(r *Result) []int {
	var at []int
	for _, w := range r.Warnings {
		at = append(at, w.OpIndex)
	}
	return at
}

// FuzzCheckerMatchesOracle drives every configuration the conformance
// matrix runs (configs) with arbitrary well-formed traces: each must agree
// with the offline oracle, and on a violation each must report its first
// warning at the same operation (AeroDrome its only one). Inputs of odd
// length run with a span buffer attached, and may be twice as long, so
// that the checkers leave their exact prefix and sample: tracing must not
// move a verdict. Every check runs twice, over the whole trace and over a
// split seeded by the input: where the batches end must not move a
// warning.
func FuzzCheckerMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte("atomicity"))
	f.Add([]byte{16, 0, 1, 17, 20, 1, 0, 21})
	f.Add(bytes.Repeat([]byte{16, 0, 1, 17, 20, 1, 0, 21, 5}, 23)) // odd length: traced, past the exact prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		var sb *span.Buf
		limit := 64
		if len(data)%2 == 1 {
			sb = span.New().Buffer("fuzz")
			limit = 2 * sampleStride
		}
		if len(data) > limit {
			data = data[:limit]
		}
		tr := decodeOps(data)
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("decoder produced ill-formed trace: %v", err)
		}
		want, _ := serial.Check(tr)
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		check := func(opts Options) *Result {
			whole, split := CheckTrace(tr, opts), checkSplit(tr, opts, rng)
			if !slices.Equal(positions(whole), positions(split)) || whole.Snapshot != split.Snapshot {
				t.Fatalf("%+v: warnings at %v (%+v) from split batches, at %v (%+v) from one\n%s",
					opts, positions(split), split.Snapshot, positions(whole), whole.Snapshot, tr)
			}
			return whole
		}
		first := -1
		for _, opts := range configs() {
			opts.Spans = sb
			res := check(opts)
			if res.Serializable != want {
				t.Fatalf("%+v: serializable=%v, oracle=%v\n%s", opts, res.Serializable, want, tr)
			}
			if want {
				continue
			}
			if opts.Engine == Aero && len(res.Warnings) != 1 {
				t.Fatalf("aero reported %d warnings, want 1\n%s", len(res.Warnings), tr)
			}
			if at := res.Warnings[0].OpIndex; first < 0 {
				first = at
			} else if at != first {
				t.Fatalf("%+v: first warning at op %d, the first configuration's at op %d\n%s", opts, at, first, tr)
			}
		}
	})
}

// fuzzIDLimit is the largest thread, lock or fork/join id
// FuzzDecodedInputNeverPanics lets through. Such an id is valid up to
// MaxInt32 and sizes a dense table (ROADMAP item 2(b): the resource
// budget's job), which a fuzz run on a shared machine must not do.
const fuzzIDLimit = 1 << 12

// FuzzDecodedInputNeverPanics: the decoders are the only gate between a
// byte stream and the engines' tables, so whatever they accept — well
// formed or not: an end with no begin, a release nobody holds, a join of
// a thread never forked, a negative variable — every registered engine
// must step without panicking, and what they refuse (ids that would wrap
// or go negative as an index) must come back as CheckStream's error.
func FuzzDecodedInputNeverPanics(f *testing.F) {
	for _, text := range []string{
		"rd(-1,x1)\n", "acq(0,m-5)\n", "rd(4294967295,x1)\n", "wr(2147483648,x1)\n",
		"fork(0,t-1)\n", "join(0,t4294967295)\n",
		"rd(0,x-1)\nwr(1,x-1)\nbegin.a(0)\nrd(0,x-2147483648)\nwr(1,x2147483647)\nend(0)\n",
		"end(0)\nrel(0,m1)\njoin(0,t3)\nend(3)\nfork(3,t0)\nfork(0,t0)\n",
		"begin.a(1)\nrd(1,x0)\nfork(1,t2)\nwr(2,x0)\njoin(1,t2)\nwr(1,x0)\nend(1)\n",
		"begin(4095)\nacq(4095,m4095)\nfork(4095,t4095)\nrd(0,x65535)\nwr(0,x65536)\nwr(0,x16777216)\n",
	} {
		f.Add([]byte(text))
	}
	tr := trace.Trace{trace.Beg(1, "a"), trace.Rd(1, -3), trace.ForkOp(1, 2), trace.Wr(2, -3), trace.Wr(1, -3), trace.Fin(1), trace.Fin(1)}
	var bin, stream bytes.Buffer
	trace.MarshalBinary(&bin, tr)
	trace.MarshalStream(&stream, tr, "velo events emitted=7 pruned=0")
	f.Add(bin.Bytes())
	f.Add(stream.Bytes())
	f.Add([]byte{'V', 'T', 'S', '1', byte(trace.Read), 0x80, 0x80, 0x80, 0x80, 0x08, 2, 0xFF, 0}) // thread 1<<31
	f.Add([]byte{'V', 'T', 'S', '1', byte(trace.Acquire), 0, 9, 0xFF, 0})                         // lock -5
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, _ := trace.NewDecoder(bytes.NewReader(data)).ReadAll()
		for _, op := range ops {
			if op.Thread > fuzzIDLimit || op.Kind >= trace.Acquire && op.Target > fuzzIDLimit {
				t.Skip("an id this large sizes a dense table")
			}
		}
		for _, info := range Engines() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on %q: %v", info.Name, data, r)
					}
				}()
				res, n, err := CheckStream(trace.NewDecoder(bytes.NewReader(data)), Options{Engine: info.Engine})
				if n != len(ops) || err == nil && n > 0 && res == nil {
					t.Fatalf("%s: %d ops checked of %d decoded, result %v, err %v", info.Name, n, len(ops), res, err)
				}
			}()
		}
	})
}
