// Package analysis is the static front-half of the Velodrome
// reproduction: a stdlib-only (go/parser + go/types) analyzer that
// classifies every candidate memory access of a package as shared,
// thread-local or lock-protected — the static analogue of the paper's
// Section 5 redundant-event filters.
//
// Its consumer is internal/instr (and cmd/veloinstr): the rewriter
// decides from the facts which accesses it instruments and which it
// prunes, and -analyze prints them as the classification table.
//
// Construction is BuildFacts (Load/LoadSource → ScanDirectives →
// BuildFacts); ScanDirectives also reports ill-formed //velo:
// annotations as error Diagnostics. The interprocedural entry-lock
// fixpoint (interproc.go) is what makes the pruning strictly stronger
// than a per-function scan; its soundness argument lives in DESIGN.md.
package analysis
