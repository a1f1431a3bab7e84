package serial

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/rr"
	"repro/internal/trace"
)

// checkPairwise is the definition executed literally: an edge
// txn(i) → txn(j) for every pair i < j of conflicting operations of the
// desugared trace, then a depth-first search for a cycle. It is quadratic
// in the trace, and it is the reference Check is held to.
func checkPairwise(tr trace.Trace) (serializable bool, cycle []int) {
	tr = tr.Desugar()
	txnOf, n := Transactions(tr)
	adj := make([]map[int]bool, n)
	edge := func(a, b int) {
		if a == b {
			return
		}
		if adj[a] == nil {
			adj[a] = map[int]bool{}
		}
		adj[a][b] = true
	}
	for j := 1; j < len(tr); j++ {
		for i := 0; i < j; i++ {
			if trace.Conflicts(tr[i], tr[j]) {
				edge(txnOf[i], txnOf[j])
			}
		}
	}
	// DFS cycle detection with color marking.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	var cycleAt int = -1
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for v := range adj[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				cycleAt = v
				parent[v] = u // close the cycle for extraction
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < n; u++ {
		if color[u] == white {
			parent[u] = -1
			if dfs(u) {
				// Extract the cycle ending at cycleAt.
				cyc := []int{cycleAt}
				for v := parent[cycleAt]; v != cycleAt; v = parent[v] {
					cyc = append(cyc, v)
				}
				// Reverse into happens-before order.
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				return false, cyc
			}
		}
	}
	return true, nil
}

// genTrace turns a string of choices into a well-formed trace of 2–4
// threads: reads and writes of three variables, blocks nested up to three
// deep, two locks, and a main thread 1 that may fork each other thread
// before it first runs and may join it later. Blocks and locks may still
// be open when the choices run out. Each thread's first choice only starts
// it, so a thread forked inside one of main's blocks runs inside it.
func genTrace(choices []byte) trace.Trace {
	next := func(n int) int {
		if len(choices) == 0 {
			return 0
		}
		b := choices[0]
		choices = choices[1:]
		return int(b) % n
	}
	type thread struct {
		started, joined bool
		depth           int
		held            []trace.Lock
	}
	nThreads := 2 + next(3)
	ths := make([]thread, nThreads+1)
	ths[1].started = true
	var owner [2]trace.Tid
	var tr trace.Trace
	for len(choices) > 0 {
		t := trace.Tid(1 + next(nThreads))
		th := &ths[t]
		if th.joined {
			continue
		}
		if !th.started {
			th.started = true
			if next(2) == 0 {
				tr = append(tr, trace.ForkOp(1, t))
			}
			continue
		}
		switch next(12) {
		case 0, 1, 2:
			tr = append(tr, trace.Rd(t, trace.Var(next(3))))
		case 3, 4, 5:
			tr = append(tr, trace.Wr(t, trace.Var(next(3))))
		case 6, 7:
			if th.depth < 3 {
				th.depth++
				tr = append(tr, trace.Beg(t, "blk"))
			}
		case 8:
			if th.depth > 0 {
				th.depth--
				tr = append(tr, trace.Fin(t))
			}
		case 9:
			if m := trace.Lock(next(2)); owner[m] == 0 {
				owner[m] = t
				th.held = append(th.held, m)
				tr = append(tr, trace.Acq(t, m))
			}
		case 10:
			if len(th.held) > 0 {
				m := th.held[len(th.held)-1]
				th.held = th.held[:len(th.held)-1]
				owner[m] = 0
				tr = append(tr, trace.Rel(t, m))
			}
		case 11:
			u := trace.Tid(2 + next(nThreads-1))
			if t == 1 && ths[u].started && !ths[u].joined && len(ths[u].held) == 0 {
				ths[u].joined = true
				tr = append(tr, trace.JoinOp(1, u))
			}
		}
	}
	return tr
}

// randomChoices draws the choices for one genTrace input.
func randomChoices(rng *rand.Rand) []byte {
	choices := make([]byte, 24+rng.Intn(72))
	rng.Read(choices)
	return choices
}

// assertGenuineCycle fails unless cyc is a cycle of the definition's
// graph: for each consecutive pair (a, b), last → first included, some
// i < j of the desugared trace conflict with i in a and j in b.
func assertGenuineCycle(t *testing.T, name string, tr trace.Trace, cyc []int) {
	t.Helper()
	tr = tr.Desugar()
	txnOf, n := Transactions(tr)
	if len(cyc) < 2 {
		t.Fatalf("%s: witness %v is shorter than two transactions", name, cyc)
	}
	opsOf := make([][]int, n)
	for i, x := range txnOf {
		opsOf[x] = append(opsOf[x], i)
	}
	for k, a := range cyc {
		b := cyc[(k+1)%len(cyc)]
		if a < 0 || a >= n || b < 0 || b >= n || slices.Index(cyc, a) != k {
			t.Fatalf("%s: witness %v names a bad or repeated transaction", name, cyc)
		}
		found := false
		for _, j := range opsOf[b] {
			for _, i := range opsOf[a] {
				if i < j && trace.Conflicts(tr[i], tr[j]) {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("%s: witness %v: no conflict from transaction %d to %d", name, cyc, a, b)
		}
	}
}

// agree holds Check to checkPairwise on one trace, and a witness to being
// a genuine cycle that the same trace yields again; it reports the
// verdict.
func agree(t *testing.T, name string, tr trace.Trace) bool {
	t.Helper()
	ok, cyc := Check(tr)
	want, _ := checkPairwise(tr)
	if ok != want {
		t.Fatalf("%s: Check=%v, pairwise=%v\n%s", name, ok, want, tr)
	}
	if ok != (cyc == nil) {
		t.Fatalf("%s: verdict %v with witness %v", name, ok, cyc)
	}
	if !ok {
		assertGenuineCycle(t, name, tr, cyc)
		if _, again := Check(tr); !slices.Equal(again, cyc) {
			t.Fatalf("%s: witness %v, then %v on the same trace", name, cyc, again)
		}
	}
	return ok
}

// TestCheckMatchesPairwise: the one-pass graph decides what the
// definition decides, on the committed traces, the Table 1 corpus and
// random traces, and its witnesses are cycles of the definition's graph.
func TestCheckMatchesPairwise(t *testing.T) {
	t.Run("testdata", func(t *testing.T) {
		files, err := filepath.Glob("../../testdata/*.txt")
		if err != nil || len(files) == 0 {
			t.Fatalf("no corpus files: %v", err)
		}
		for _, file := range files {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.ReadAuto(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			agree(t, file, tr)
		}
	})
	t.Run("table1", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			for _, w := range bench.All() {
				rep := rr.Run(rr.Options{Seed: seed, Record: true}, func(th *rr.Thread) {
					w.Body(th, bench.Params{Scale: 2})
				})
				agree(t, w.Name, rep.Trace)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		const n = 100_000
		rng := rand.New(rand.NewSource(39))
		violations := 0
		for i := 0; i < n; i++ {
			if !agree(t, "random", genTrace(randomChoices(rng))) {
				violations++
			}
		}
		// A generator whose traces are nearly all serializable tests
		// little of the cycle search.
		if share := float64(violations) / float64(n); share < 0.2 {
			t.Fatalf("only %.1f%% of the random traces are non-serializable", 100*share)
		}
		t.Logf("%d of %d random traces non-serializable", violations, n)
	})
}

// FuzzCheckMatchesPairwise is TestCheckMatchesPairwise's random half on
// fuzzed choices.
func FuzzCheckMatchesPairwise(f *testing.F) {
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 8; i++ {
		f.Add(randomChoices(rng))
	}
	f.Fuzz(func(t *testing.T, choices []byte) {
		if len(choices) > 256 {
			choices = choices[:256]
		}
		agree(t, "fuzz", genTrace(choices))
	})
}
