package exper

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rr"
)

// AblateRow quantifies the two key design choices of Section 4 on one
// benchmark: node merging (4.2) and reference-counting GC (4.1).
type AblateRow struct {
	Name string
	// Merge ablation: total nodes allocated.
	AllocWithMerge, AllocWithoutMerge int
	// GC ablation: peak live nodes.
	AliveWithGC, AliveWithoutGC int
	// Verdict equality across all four configurations (must be true:
	// the optimizations are exactness-preserving).
	VerdictsAgree bool
}

// Ablate runs every workload under the four configurations.
func Ablate(seed int64, scale int) []AblateRow {
	var rows []AblateRow
	for _, w := range bench.All() {
		p := bench.Params{Scale: scale}
		run := func(opts core.Options) (stats GraphStats, warned bool) {
			velo := rr.NewVelodrome(opts)
			rr.Run(rr.Options{Seed: seed, Backend: velo}, func(t *rr.Thread) {
				w.Body(t, p)
			})
			return velo.Checker.Snapshot().Stats, len(velo.Warnings()) > 0
		}
		base, w0 := run(core.Options{})
		noMerge, w1 := run(core.Options{NoMerge: true})
		noGC, w2 := run(core.Options{NoGC: true})
		noBoth, w3 := run(core.Options{NoMerge: true, NoGC: true})
		rows = append(rows, AblateRow{
			Name:              w.Name,
			AllocWithMerge:    base.Allocated,
			AllocWithoutMerge: noMerge.Allocated,
			AliveWithGC:       base.MaxAlive,
			AliveWithoutGC:    noGC.MaxAlive,
			VerdictsAgree:     w0 == w1 && w1 == w2 && w2 == w3 && noBoth.Allocated >= noGC.MaxAlive,
		})
		_ = noBoth
	}
	return rows
}
