// Package report renders the experiment results as aligned text tables in
// the layout of the paper's Table 1 and Table 2.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/exper"
)

// writeRow emits one table row with the given column widths.
func writeRow(w io.Writer, widths []int, cells ...string) {
	var b strings.Builder
	for i, c := range cells {
		if i > 0 {
			b.WriteString("  ")
		}
		pad := widths[i] - len(c)
		if pad < 0 {
			pad = 0
		}
		if i == 0 {
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		} else {
			b.WriteString(strings.Repeat(" ", pad))
			b.WriteString(c)
		}
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
}

// Table1 renders the timing and node-statistics table: the base run's
// scheduling steps, events and time per step next to its time, then the
// slowdowns. Paper node counts are shown in parentheses next to the
// measured values.
func Table1(w io.Writer, rows []exper.Table1Row) {
	fmt.Fprintln(w, "Table 1: running times, slowdowns, and happens-before graph statistics")
	fmt.Fprintln(w, "(slowdowns relative to the uninstrumented base run; paper node counts in parentheses)")
	fmt.Fprintln(w)
	widths := []int{11, 9, 10, 8, 8, 9, 7, 7, 9, 10, 22, 12, 22, 12}
	writeRow(w, widths, "Program", "Size", "Base", "Steps", "Events", "Base/step", "Empty", "Eraser", "Atomizer", "Velodrome",
		"Alloc w/o merge", "Alive", "Alloc w/ merge", "Alive")
	writeRow(w, widths, "", "(lines)", "", "", "", "(ns)", "", "", "", "",
		"", "(max)", "", "(max)")
	for _, r := range rows {
		perStep := "-"
		if r.Steps > 0 {
			perStep = fmt.Sprintf("%.0f", float64(r.BaseTime.Nanoseconds())/float64(r.Steps))
		}
		writeRow(w, widths,
			r.Name,
			fmt.Sprintf("%d", r.JavaLines),
			r.BaseTime.Round(r.BaseTime/100+1).String(),
			fmt.Sprintf("%d", r.Steps),
			fmt.Sprintf("%d", r.Events),
			perStep,
			fmt.Sprintf("%.1f", r.Empty),
			fmt.Sprintf("%.1f", r.Eraser),
			fmt.Sprintf("%.1f", r.Atomizer),
			fmt.Sprintf("%.1f", r.Velodrome),
			fmt.Sprintf("%d (%s)", r.NoMergeAllocated, r.PaperNoMergeAlloc),
			fmt.Sprintf("%d (%s)", r.NoMergeMaxAlive, r.PaperNoMergeAlive),
			fmt.Sprintf("%d (%s)", r.MergeAllocated, r.PaperMergeAlloc),
			fmt.Sprintf("%d (%s)", r.MergeMaxAlive, r.PaperMergeAlive),
		)
	}
}

// Table2 renders the warnings table with the paper's numbers alongside.
func Table2(w io.Writer, rows []exper.Table2Row) {
	fmt.Fprintln(w, "Table 2: warnings with all methods assumed atomic, five runs")
	fmt.Fprintln(w, "(measured / paper)")
	fmt.Fprintln(w)
	widths := []int{11, 13, 13, 13, 12, 11, 9}
	writeRow(w, widths, "Program", "Atomizer NS", "Atomizer FA",
		"Velodrome NS", "Velodrome FA", "Missed", "Blamed")
	for _, r := range rows {
		blame := "-"
		if r.VeloWarnings > 0 {
			blame = fmt.Sprintf("%d%%", 100*r.VeloBlamed/r.VeloWarnings)
		}
		writeRow(w, widths,
			r.Name,
			fmt.Sprintf("%d / %d", r.AtomizerNonSerial, r.PaperAtomNS),
			fmt.Sprintf("%d / %d", r.AtomizerFalse, r.PaperAtomFA),
			fmt.Sprintf("%d / %d", r.VeloNonSerial, r.PaperVeloNS),
			fmt.Sprintf("%d / %d", r.VeloFalse, r.PaperVeloFA),
			fmt.Sprintf("%d / %d", r.Missed, r.PaperMissed),
			blame,
		)
	}
}

// Inject renders the defect-injection experiment results.
func Inject(w io.Writer, results []exper.InjectResult) {
	fmt.Fprintln(w, "Defect injection (Section 6): each contention-inducing synchronized")
	fmt.Fprintln(w, "statement guarding an atomic method removed in turn; one run per seed.")
	fmt.Fprintln(w, "Paper: ~30% plain, ~70% with adversarial scheduling.")
	fmt.Fprintln(w)
	widths := []int{11, 8, 8, 12}
	writeRow(w, widths, "Program", "Trials", "Plain", "Adversarial")
	totTrials, totPlain, totAdv := 0, 0, 0
	for _, r := range results {
		writeRow(w, widths, r.Workload,
			fmt.Sprintf("%d", r.Trials),
			fmt.Sprintf("%.0f%%", 100*r.PlainRate),
			fmt.Sprintf("%.0f%%", 100*r.AdvRate))
		totTrials += r.Trials
		totPlain += r.PlainHits
		totAdv += r.AdvHits
	}
	if totTrials > 0 {
		writeRow(w, widths, "Overall",
			fmt.Sprintf("%d", totTrials),
			fmt.Sprintf("%.0f%%", 100*float64(totPlain)/float64(totTrials)),
			fmt.Sprintf("%.0f%%", 100*float64(totAdv)/float64(totTrials)))
	}
}

// MethodDetail lists, per workload, which methods each tool flagged.
func MethodDetail(w io.Writer, rows []exper.Table2Row) {
	for _, r := range rows {
		if r.Name == "Total" || (len(r.VeloMethods) == 0 && len(r.AtomMethods) == 0) {
			continue
		}
		fmt.Fprintf(w, "%s:\n", r.Name)
		both, veloOnly, atomOnly := []string{}, []string{}, []string{}
		for m := range r.VeloMethods {
			if r.AtomMethods[m] {
				both = append(both, m)
			} else {
				veloOnly = append(veloOnly, m)
			}
		}
		for m := range r.AtomMethods {
			if !r.VeloMethods[m] {
				atomOnly = append(atomOnly, m)
			}
		}
		for _, group := range []struct {
			label string
			ms    []string
		}{{"both", both}, {"velodrome only", veloOnly}, {"atomizer only", atomOnly}} {
			if len(group.ms) == 0 {
				continue
			}
			sortStrings(group.ms)
			fmt.Fprintf(w, "  %s: %s\n", group.label, strings.Join(group.ms, ", "))
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Policies renders the scheduling-policy study (Section 5's exploration).
func Policies(w io.Writer, results []exper.PolicyResult) {
	fmt.Fprintln(w, "Adversarial pause policies (Section 5) on the injection trials:")
	fmt.Fprintln(w)
	widths := []int{14, 8, 8, 8}
	writeRow(w, widths, "Policy", "Trials", "Hits", "Rate")
	for _, r := range results {
		writeRow(w, widths, r.Policy,
			fmt.Sprintf("%d", r.Trials),
			fmt.Sprintf("%d", r.Hits),
			fmt.Sprintf("%.0f%%", 100*r.Rate))
	}
}

// Ablate renders the design-choice ablation table.
func Ablate(w io.Writer, rows []exper.AblateRow) {
	fmt.Fprintln(w, "Ablation of Section 4's design choices (one run per benchmark):")
	fmt.Fprintln(w, "merging (4.2) cuts allocation; GC (4.1) bounds live nodes; verdicts never change.")
	fmt.Fprintln(w)
	widths := []int{11, 13, 13, 11, 11, 9}
	writeRow(w, widths, "Program", "Alloc+merge", "Alloc-merge", "Alive+GC", "Alive-GC", "Verdicts")
	for _, r := range rows {
		agree := "agree"
		if !r.VerdictsAgree {
			agree = "DIFFER"
		}
		writeRow(w, widths, r.Name,
			fmt.Sprintf("%d", r.AllocWithMerge),
			fmt.Sprintf("%d", r.AllocWithoutMerge),
			fmt.Sprintf("%d", r.AliveWithGC),
			fmt.Sprintf("%d", r.AliveWithoutGC),
			agree)
	}
}

// Coverage renders the cumulative-coverage curve.
func Coverage(w io.Writer, c exper.CoverageCurve) {
	fmt.Fprintln(w, "Cumulative distinct non-atomic methods found per run (Section 6:")
	fmt.Fprintln(w, `"the large majority of errors were reported on the first of the five runs"):`)
	fmt.Fprintln(w)
	widths := []int{8, 11, 10}
	writeRow(w, widths, "Runs", "Velodrome", "Atomizer")
	for i := range c.Seeds {
		writeRow(w, widths, fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", c.CumVelo[i]),
			fmt.Sprintf("%d", c.CumAtom[i]))
	}
}
