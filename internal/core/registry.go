package core

import "strings"

// EngineInfo describes one registered engine: its canonical name (the
// value accepted by every -engine flag and by the VELOSESS/1 session
// header), aliases, and capability flags the callers branch on. All
// engine selection across the commands and the daemon goes through this
// registry, so adding an engine here surfaces it everywhere at once.
type EngineInfo struct {
	Engine  Engine
	Name    string
	Aliases []string
	// Summary is the one-line description shown in -engine usage text.
	Summary string
	// ReportsAllViolations: the engine keeps checking past the first
	// warning (the graph engines). AeroDrome stops at the first
	// violation — past it the clocks no longer describe an acyclic
	// order — so comparisons against it must use first-violation
	// semantics.
	ReportsAllViolations bool
	// SupportsForensics: Options.Forensics yields provenance reports.
	// Requires a happens-before cycle to annotate, so it is a graph
	// engine capability.
	SupportsForensics bool
	// SupportsPrefilter: SkipFiltered consumes externally prefiltered
	// operations state-identically, so internal/pipeline may run its
	// sharded mark stage ahead of this engine. Engines without it fall
	// back to the plain serial loop inside the pipeline.
	SupportsPrefilter bool
	// Reference: the engine is a reproduction artifact kept as the
	// differential reference (tests, velobench, the benchmark's
	// reference check, and every CLI -engine flag), not a production
	// engine: the daemon refuses it and veloinstr -run leaves it out.
	Reference bool
}

// engines is the registry, in display order. Optimized first: it is the
// default everywhere.
var engines = []EngineInfo{
	{
		Engine:               Optimized,
		Name:                 "optimized",
		Aliases:              []string{"opt"},
		Summary:              "transactional happens-before graph with merging, GC and blame (Figure 4)",
		ReportsAllViolations: true,
		SupportsForensics:    true,
		SupportsPrefilter:    true,
	},
	{
		Engine:               Basic,
		Name:                 "basic",
		Aliases:              nil,
		Summary:              "the initial analysis of Figure 2 (differential testing; no blame)",
		ReportsAllViolations: true,
		SupportsForensics:    true,
		SupportsPrefilter:    true,
		Reference:            true,
	},
	{
		Engine:               Aero,
		Name:                 "aerodrome",
		Aliases:              []string{"aero"},
		Summary:              "linear-time vector-clock engine; first violation only, no graph",
		ReportsAllViolations: false,
		SupportsForensics:    false,
		SupportsPrefilter:    true,
	},
}

// Engines returns the registry in display order. The slice is shared:
// callers must not mutate it.
func Engines() []EngineInfo { return engines }

// InfoFor returns the registry entry for e (the Optimized entry for an
// unknown enum value, which cannot arise through EngineByName).
func InfoFor(e Engine) EngineInfo {
	for _, info := range engines {
		if info.Engine == e {
			return info
		}
	}
	return engines[0]
}

// EngineByName resolves a user-supplied engine name (canonical or
// alias, case-insensitive). The empty string resolves to the default
// engine, Optimized.
func EngineByName(name string) (EngineInfo, bool) {
	if name == "" {
		return engines[0], true
	}
	name = strings.ToLower(name)
	for _, info := range engines {
		if info.Name == name {
			return info, true
		}
		for _, a := range info.Aliases {
			if a == name {
				return info, true
			}
		}
	}
	return EngineInfo{}, false
}

// EngineNames returns the canonical names joined for usage and error
// strings: "optimized, basic, aerodrome".
func EngineNames() string { return joinNames(true) }

// ProductionEngineNames is EngineNames without the reference engines:
// what velodromed accepts and veloinstr -run runs.
func ProductionEngineNames() string { return joinNames(false) }

func joinNames(reference bool) string {
	var names []string
	for _, info := range engines {
		if reference || !info.Reference {
			names = append(names, info.Name)
		}
	}
	return strings.Join(names, ", ")
}
