// Package forensic is the warning-forensics layer: a bounded per-thread
// event flight recorder plus the provenance-report model that turns a
// detected happens-before cycle into a debuggable witness.
//
// Velodrome's verdict is sound and complete, but a verdict alone is not
// actionable — what a practitioner needs from the tool is the evidence:
// which accesses conflicted, when, and what the involved threads were
// doing around the violation (the paper's Section 5 error graphs;
// RegionTrack, arXiv:2008.04479, makes the same argument for
// serializability witnesses). The Recorder retains the last N operations
// of every thread in fixed-size ring buffers — zero allocation in steady
// state, off by default — and tracks the last access to every variable
// and lock so the engines can annotate each happens-before edge with the
// exact access pair that created it.
package forensic

import (
	"repro/internal/trace"
)

// DefaultWindow is the per-thread flight-recorder depth when the caller
// does not choose one.
const DefaultWindow = 32

// Access is one recorded access: an operation and its trace position.
// The zero value (OK false) means "no such access recorded".
type Access struct {
	Idx int64
	Op  trace.Op
	OK  bool
}

// ringEntry is one retained operation.
type ringEntry struct {
	idx int64
	op  trace.Op
}

// ring is a fixed-size circular buffer of the newest operations of one
// thread. Writes overwrite the oldest entry; no allocation after the
// buffer is created.
type ring struct {
	buf  []ringEntry
	next int   // next write slot
	n    int64 // total operations ever recorded
}

func (r *ring) push(idx int64, op trace.Op) {
	r.buf[r.next] = ringEntry{idx: idx, op: op}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.n++
}

// window copies the retained entries oldest-first, naming Begin labels
// through labels.
func (r *ring) window(labels *trace.Labels) []WindowOp {
	if r == nil || r.n == 0 {
		return nil
	}
	k := int64(len(r.buf))
	if r.n < k {
		k = r.n
	}
	out := make([]WindowOp, 0, k)
	start := r.next - int(k)
	if start < 0 {
		start += len(r.buf)
	}
	for i := int64(0); i < k; i++ {
		e := r.buf[(start+int(i))%len(r.buf)]
		out = append(out, WindowOp{Index: e.idx, Op: e.op.Format(labels)})
	}
	return out
}

// denseVarLimit mirrors core's slice-backed variable range; the synthetic
// fork/join token variables (≥ 1<<24) overflow to sparse maps.
const denseVarLimit = 1 << 16

// Recorder is the per-checker forensics state: one flight-recorder ring
// per thread and the last-access provenance tables. It is not safe for
// concurrent use — like the engines it serves, it rides the serialized
// event stream. All tables grow to their high-water mark and then stop
// allocating, preserving the engines' steady-state zero-alloc property.
type Recorder struct {
	window  int
	threads []*ring // dense by tid

	lastW    []Access   // per variable: last write
	lastR    [][]Access // per variable, per thread: last read
	lastRel  []Access   // per lock: last release
	sparseW  map[trace.Var]Access
	sparseR  map[trace.Var][]Access
	recorded int64
}

// NewRecorder returns a Recorder retaining the last `window` operations
// per thread (DefaultWindow if window <= 0).
func NewRecorder(window int) *Recorder {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Recorder{window: window}
}

// Window returns the per-thread flight-recorder depth.
func (r *Recorder) Window() int { return r.window }

// Recorded returns the total number of operations noted so far.
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	return r.recorded
}

// Note records op at trace position idx into its thread's flight
// recorder. Every operation is noted, including ones the redundant-event
// filter later discards — the window is a record of what the thread did,
// not of what the graph saw.
func (r *Recorder) Note(idx int64, op trace.Op) {
	t := int(op.Thread)
	for t >= len(r.threads) {
		r.threads = append(r.threads, nil)
	}
	rg := r.threads[t]
	if rg == nil {
		rg = &ring{buf: make([]ringEntry, r.window)}
		r.threads[t] = rg
	}
	rg.push(idx, op)
	r.recorded++
}

// ThreadWindow returns thread t's retained operations, oldest first
// (nil when the thread was never seen), rendered with Begin labels named
// through labels, the table the ops' ids index.
func (r *Recorder) ThreadWindow(t trace.Tid, labels *trace.Labels) []WindowOp {
	if r == nil || int(t) >= len(r.threads) {
		return nil
	}
	return r.threads[t].window(labels)
}

// Access records op at idx into the last-access provenance tables. The
// engines call it only for operations that actually reached the graph —
// a filtered (redundant) access leaves the stored W/R/U step unchanged,
// so the matching provenance entry must stay unchanged too.
func (r *Recorder) Access(idx int64, op trace.Op) {
	a := Access{Idx: idx, Op: op, OK: true}
	switch op.Kind {
	case trace.Write:
		x := op.Var()
		if x >= 0 && x < denseVarLimit {
			for int(x) >= len(r.lastW) {
				r.lastW = append(r.lastW, Access{})
			}
			r.lastW[x] = a
			return
		}
		if r.sparseW == nil {
			r.sparseW = map[trace.Var]Access{}
		}
		r.sparseW[x] = a
	case trace.Read:
		x, t := op.Var(), int(op.Thread)
		if x >= 0 && x < denseVarLimit {
			for int(x) >= len(r.lastR) {
				r.lastR = append(r.lastR, nil)
			}
			row := r.lastR[x]
			for t >= len(row) {
				row = append(row, Access{})
			}
			row[t] = a
			r.lastR[x] = row
			return
		}
		if r.sparseR == nil {
			r.sparseR = map[trace.Var][]Access{}
		}
		row := r.sparseR[x]
		for t >= len(row) {
			row = append(row, Access{})
		}
		row[t] = a
		r.sparseR[x] = row
	case trace.Release:
		m := int(op.Target)
		for m >= len(r.lastRel) {
			r.lastRel = append(r.lastRel, Access{})
		}
		r.lastRel[m] = a
	}
}

// LastWrite returns the last recorded write of x. Nil-safe: a nil
// Recorder (forensics off) reports no access.
func (r *Recorder) LastWrite(x trace.Var) Access {
	if r == nil {
		return Access{}
	}
	if x >= 0 && x < denseVarLimit {
		if int(x) < len(r.lastW) {
			return r.lastW[x]
		}
		return Access{}
	}
	return r.sparseW[x]
}

// LastRead returns thread t's last recorded read of x.
func (r *Recorder) LastRead(x trace.Var, t trace.Tid) Access {
	if r == nil {
		return Access{}
	}
	var row []Access
	if x >= 0 && x < denseVarLimit {
		if int(x) < len(r.lastR) {
			row = r.lastR[x]
		}
	} else {
		row = r.sparseR[x]
	}
	if int(t) < len(row) {
		return row[t]
	}
	return Access{}
}

// LastRelease returns the last recorded release of lock m.
func (r *Recorder) LastRelease(m trace.Lock) Access {
	if r == nil || int(m) >= len(r.lastRel) {
		return Access{}
	}
	return r.lastRel[m]
}

// LastOf returns the newest flight-recorder entry of thread t (the
// source of a program-order edge).
func (r *Recorder) LastOf(t trace.Tid) Access {
	if r == nil || int(t) >= len(r.threads) {
		return Access{}
	}
	rg := r.threads[t]
	if rg == nil || rg.n == 0 {
		return Access{}
	}
	i := rg.next - 1
	if i < 0 {
		i = len(rg.buf) - 1
	}
	return Access{Idx: rg.buf[i].idx, Op: rg.buf[i].op, OK: true}
}
