// Auditbug is a ledger-reconciliation example with a seeded atomicity
// bug: reconcile is annotated atomic but snapshots the ledger in one
// critical section and applies the correction in another, so a credit
// can slip between the two and the correction is computed from a stale
// snapshot. Channel handshakes force that interleaving
// deterministically, exactly like bankbug.
//
// What makes this pair different from bankbug is the pruning story:
// credit and debit mutate the ledger without touching mu themselves —
// every caller holds it around the call. A per-function analysis must
// classify ledger as shared; only the interprocedural entry-lock
// inference proves it lock-protected, so this example is where
// `veloinstr -analyze` marks the ledger's row interprocedural.
//
// Pruning fodder for -analyze:
//   - ledger is mutated by credit/debit, which never lock: pruned only
//     by the interprocedural analysis (held: mu, interprocedural).
//   - audits is only touched under auditMu: lock-protected, pruned.
//   - openingLedger is only touched by the main goroutine: thread-local.
//   - lastReconciled is written by the reconciler and read by main with
//     no common lock: genuinely shared, so its accesses are emitted.
package main

import "sync"

// target is the balance the reconciler drives the ledger back to.
const target = 100

var mu sync.Mutex

var ledger int

var auditMu sync.Mutex

var audits int

var openingLedger int

var lastReconciled int

var step = make(chan struct{})

// credit adds to the ledger. Callers must hold mu — the lock never
// appears in this function, so proving the access protected takes the
// interprocedural entry-lock analysis.
func credit(n int) {
	ledger += n
}

// debit removes from the ledger. Same locking contract as credit.
func debit(n int) {
	ledger -= n
}

func recordAudit() {
	auditMu.Lock()
	audits++
	auditMu.Unlock()
}

// reconcile snapshots the ledger drift in one critical section and
// applies the correction in another: not atomic. A credit between the
// two leaves the correction stale.
//
//velo:atomic
func reconcile() {
	mu.Lock()
	drift := ledger - target
	mu.Unlock()
	step <- struct{}{} // handshake: drift snapshotted, let main credit
	<-step             // handshake: concurrent credit done
	mu.Lock()
	debit(drift)
	mu.Unlock()
	recordAudit()
	lastReconciled = drift
}

func main() {
	openingLedger = target
	mu.Lock()
	credit(openingLedger)
	mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reconcile()
	}()
	<-step // reconciler has snapshotted the drift
	mu.Lock()
	credit(25) // slips between its snapshot and its correction
	mu.Unlock()
	step <- struct{}{} // let the reconciler finish
	wg.Wait()
	recordAudit()
	mu.Lock()
	final := ledger
	mu.Unlock()
	if final != openingLedger {
		println("reconciliation missed a credit: ledger is", final, "drift was", lastReconciled)
	}
}
