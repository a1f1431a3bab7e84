package core

// Names the external tests (package core_test) use.
var Configs, LoopTraces = configs, loopTraces

// configs is every engine configuration a check is held to: for each
// registered engine, its default first, then with one option changed:
// the filter off, forensics on where the engine supports it, NoMerge,
// NoGC. The conformance matrix and FuzzCheckerMatchesOracle iterate it,
// so a registry edit is all it takes to add or remove an engine from
// both.
func configs() []Options {
	var out []Options
	for _, info := range Engines() {
		e := info.Engine
		out = append(out, Options{Engine: e}, Options{Engine: e, NoFilter: true})
		if info.SupportsForensics {
			out = append(out, Options{Engine: e, Forensics: true})
		}
		out = append(out, Options{Engine: e, NoMerge: true}, Options{Engine: e, NoGC: true})
	}
	return out
}
