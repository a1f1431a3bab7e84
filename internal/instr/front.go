package instr

import "repro/internal/analysis"

// The static front-end (loading, directive scanning, classification)
// lives in internal/analysis; this package keeps the rewriter, the
// runtime shim, and the report. The aliases below keep instr's historical API — Load,
// ScanDirectives, Analyze and their result types — as the thin facade
// the rewriter and cmd/veloinstr program against.

// Aliased front-end types.
type (
	Package    = analysis.Package
	Directives = analysis.Directives
	Analysis   = analysis.Facts
	Diagnostic = analysis.Diagnostic
	VarInfo    = analysis.VarInfo
	Class      = analysis.Class
	StmtSites  = analysis.StmtSites
	Access     = analysis.Access
)

// Aliased classification verdicts and rewrite actions.
const (
	ClassShared        = analysis.ClassShared
	ClassThreadLocal   = analysis.ClassThreadLocal
	ClassLockProtected = analysis.ClassLockProtected

	actionSkip  = analysis.ActionSkip
	actionEmit  = analysis.ActionEmit
	actionPrune = analysis.ActionPrune
)

// Load parses and type-checks every non-test .go file in dir.
func Load(dir string) (*Package, error) { return analysis.Load(dir) }

// LoadSource parses and type-checks a single in-memory file.
func LoadSource(name string, src []byte) (*Package, error) {
	return analysis.LoadSource(name, src)
}

// ScanDirectives collects //velo: annotations and their diagnostics.
func ScanDirectives(p *Package) *Directives { return analysis.ScanDirectives(p) }

// Analyze classifies every candidate access with default options
// (interprocedural inference on).
func Analyze(p *Package, dirs *Directives) *Analysis { return analysis.Analyze(p, dirs) }

// AnalyzeOpts classifies with explicit options (veloinstr -intra).
func AnalyzeOpts(p *Package, dirs *Directives, opts analysis.Options) *Analysis {
	return analysis.BuildFacts(p, dirs, opts)
}
