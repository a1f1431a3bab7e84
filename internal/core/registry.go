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
	// SupportsForensics: Options.Forensics yields provenance reports.
	// Requires a happens-before cycle to annotate, so it is a graph
	// engine capability.
	SupportsForensics bool
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
		Engine:            Optimized,
		Name:              "optimized",
		Aliases:           []string{"opt"},
		SupportsForensics: true,
	},
	{
		Engine:            Basic,
		Name:              "basic",
		SupportsForensics: true,
		Reference:         true,
	},
	{
		Engine:  Aero,
		Name:    "aerodrome",
		Aliases: []string{"aero"},
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
