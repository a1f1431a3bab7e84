// Package instr is the static front-end of the Velodrome reproduction.
// It loads and type-checks a Go package (Load, Check), reads its
// //velo:atomic specification (ScanDirectives), classifies every
// candidate memory access as shared, thread-local or lock-protected —
// the static analogue of the paper's Section 5 redundant-event filters
// (Analyze, with the interprocedural entry-lock fixpoint of
// interproc.go) — and rewrites the source to emit trace events through
// a generated runtime shim (Rewrite, ShimSource). cmd/veloinstr drives
// it, and -analyze prints the classification as a Report.
//
// The rewriter prunes exactly what the classification proves redundant,
// and that is sound only while the locks behind the proofs still emit
// their events: which sync primitives become shim wrappers is decided
// once (shimWrappers), for both halves. The soundness argument is in
// DESIGN.md.
package instr
