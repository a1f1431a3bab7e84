package instr

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/obs"
)

// Report is the human- and machine-readable summary of a package's
// classification: what -analyze prints and what -run records into the
// observability registry.
type Report struct {
	Package string
	Vars    []*VarInfo

	Shared        int
	ThreadLocal   int
	LockProtected int
	// Interproc counts variables proven lock-protected only by the
	// interprocedural entry-lock propagation.
	Interproc int

	AtomicBlocks []string // labels, sorted
	Mutexes      int
	WaitGroups   int
	Opaque       []string
	Unsupported  []string
	// Diags are the ill-formed annotations, in source order.
	Diags []Diagnostic
}

// NewReport assembles the report from the analysis results.
func NewReport(p *Package, dirs *Directives, a *Analysis) *Report {
	r := &Report{
		Package:     p.Name,
		Vars:        a.Vars,
		Mutexes:     a.Mutexes,
		WaitGroups:  a.WaitGroups,
		Opaque:      a.Opaque,
		Unsupported: a.Unsupported,
		Diags:       dirs.Diags,
	}
	for _, v := range a.Vars {
		switch v.Class {
		case ClassShared:
			r.Shared++
		case ClassThreadLocal:
			r.ThreadLocal++
		case ClassLockProtected:
			r.LockProtected++
		}
		if v.Interproc {
			r.Interproc++
		}
	}
	for _, label := range dirs.Atomic {
		r.AtomicBlocks = append(r.AtomicBlocks, label)
	}
	sort.Strings(r.AtomicBlocks)
	return r
}

// Pruned reports how many classified variables have their accesses
// elided (the paper's redundant-event optimizations).
func (r *Report) Pruned() int { return r.ThreadLocal + r.LockProtected }

// WriteTable prints the classification table, annotation summary and
// annotation diagnostics.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "package %s: %d candidate variables (%d shared, %d thread-local, %d lock-protected)\n",
		r.Package, len(r.Vars), r.Shared, r.ThreadLocal, r.LockProtected)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "  VAR\tKIND\tCLASS\tRD\tWR\tNOTE")
	for _, v := range r.Vars {
		note := ""
		switch v.Class {
		case ClassThreadLocal:
			note = "pruned"
		case ClassLockProtected:
			note = "pruned (held: " + v.Lock + ")"
			if v.Interproc {
				note = "pruned (held: " + v.Lock + ", interprocedural)"
			}
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%d\t%d\t%s\n",
			v.Name, v.Kind, v.Class, v.Reads, v.Writes, note)
	}
	tw.Flush()
	if len(r.AtomicBlocks) > 0 {
		fmt.Fprintf(w, "atomic blocks: %v\n", r.AtomicBlocks)
	} else {
		fmt.Fprintln(w, "atomic blocks: none (add //velo:atomic to functions to check)")
	}
	fmt.Fprintf(w, "sync primitives: %d mutex, %d waitgroup declarations rewritten\n", r.Mutexes, r.WaitGroups)
	for _, s := range r.Opaque {
		fmt.Fprintf(w, "note: opaque access not instrumented: %s\n", s)
	}
	for _, s := range r.Unsupported {
		fmt.Fprintf(w, "warning: %s\n", s)
	}
	for _, d := range r.Diags {
		fmt.Fprintln(w, d.Render())
	}
}

// jsonVar is the machine-readable row of the classification table.
type jsonVar struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Class     string `json:"class"`
	Lock      string `json:"lock,omitempty"`
	Reads     int    `json:"reads"`
	Writes    int    `json:"writes"`
	Interproc bool   `json:"interprocedural,omitempty"`
}

// WriteJSON emits the classification table and the annotation
// diagnostics as one JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	vars := make([]jsonVar, 0, len(r.Vars))
	for _, v := range r.Vars {
		vars = append(vars, jsonVar{
			Name:      v.Name,
			Kind:      v.Kind,
			Class:     v.Class.String(),
			Lock:      v.Lock,
			Reads:     v.Reads,
			Writes:    v.Writes,
			Interproc: v.Interproc,
		})
	}
	diags := r.Diags
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Package      string       `json:"package"`
		Vars         []jsonVar    `json:"vars"`
		AtomicBlocks []string     `json:"atomic_blocks,omitempty"`
		Diagnostics  []Diagnostic `json:"diagnostics"`
	}{r.Package, vars, r.AtomicBlocks, diags})
}

// Record mirrors the report into an observability registry under the
// instr_ prefix, so -run exposes front-end behaviour next to the
// engines' metrics.
func (r *Report) Record(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("instr_vars_shared").Set(int64(r.Shared))
	reg.Gauge("instr_vars_thread_local").Set(int64(r.ThreadLocal))
	reg.Gauge("instr_vars_lock_protected").Set(int64(r.LockProtected))
	reg.Gauge("instr_vars_interproc").Set(int64(r.Interproc))
	reg.Gauge("instr_atomic_blocks").Set(int64(len(r.AtomicBlocks)))
	reg.Gauge("instr_sync_mutexes").Set(int64(r.Mutexes))
	reg.Gauge("instr_sync_waitgroups").Set(int64(r.WaitGroups))
	reg.Gauge("instr_opaque_accesses").Set(int64(len(r.Opaque)))
	reg.Gauge("instr_unsupported_sync").Set(int64(len(r.Unsupported)))
}
