package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/colstore"
)

// GroupByShapePoint is the measured throughput of one grouped-aggregate
// shape across the three kernel tiers, plus its cost relative to the
// flat scan it decorates — the same filters and aggregate over the same
// ranges without the GROUP BY (1.0 = grouping is free).
type GroupByShapePoint struct {
	Shape string `json:"shape"`
	// Groups is the answer's distinct-key count, Ranges how many physical
	// ranges the shape scans (1 = the whole table), and Path the
	// accumulator regime it ran on ("bytecode", "dense" or "hash").
	Groups int    `json:"groups"`
	Ranges int    `json:"ranges"`
	Path   string `json:"path"`
	// KernelMRows/KernelGBps are the dispatched ScanRangeGrouped tier.
	KernelMRows float64 `json:"kernel_mrows_per_s"`
	KernelGBps  float64 `json:"kernel_gb_per_s"`
	// PortableMRows is ScanRangeGrouped with SIMD dispatch forced off.
	PortableMRows float64 `json:"portable_mrows_per_s"`
	// ScalarMRows is the row-at-a-time grouped oracle.
	ScalarMRows float64 `json:"scalar_mrows_per_s"`
	// Speedup is kernel vs scalar; VsFlat is grouped throughput over the
	// flat twin's, measured differentially (see groupedVsFlatRatio).
	Speedup float64 `json:"kernel_speedup"`
	VsFlat  float64 `json:"vs_flat"`
}

// GroupByResult is the groupby experiment's machine-readable output.
type GroupByResult struct {
	Rows int `json:"rows"`
	// Keys are the group columns' distinct-key counts (low, mid, high).
	Keys   [3]int `json:"keys"`
	Kernel string `json:"kernel"` // dispatched tier: "avx2" or "portable"
	// FastPathRatio is gcount_1f_low over flat count_1f — the acceptance
	// figure for the byte-code path (target >= 0.5); PlanRatio is
	// gcount_2f_plan over its flat twin, the grouped/flat ratio on a
	// learned-grid plan's short ranges.
	FastPathRatio float64             `json:"fastpath_ratio"`
	PlanRatio     float64             `json:"plan_ratio"`
	Shapes        []GroupByShapePoint `json:"shapes"`
}

// RunGroupBy measures grouped-aggregate scan throughput against the flat
// kernels over colstore.GroupedBench's shapes: grouped COUNT and SUM
// through one range filter on a low-, a mid- and a high-cardinality
// group column over the whole table, and through two filters over a
// plan-shaped list of short ranges, per kernel tier. Before timing
// anything it cross-checks every shape's ScanRangeGrouped answer against
// the row-at-a-time scalar oracle and returns an error on any mismatch,
// so a wrong-answer kernel can never report a throughput number.
func RunGroupBy(o Options) (*GroupByResult, error) {
	o = o.fill()
	rows := o.Rows * 4 // raw scans are fast; more rows = steadier numbers
	// Floor the table at ~6MB per column even in -quick mode: the
	// acceptance ratio compares the grouped scan against the flat
	// count_1f kernel in the memory-bound regime, and a cache-resident
	// flat baseline (one 8B stream vs the grouped scan's two) would
	// overstate the gap by the LLC-to-DRAM bandwidth ratio.
	if rows < 3<<18 {
		rows = 3 << 18
	}
	st, shapes := colstore.GroupedBench(rows, o.Seed)
	res := &GroupByResult{Rows: rows, Keys: colstore.GroupedBenchKeys, Kernel: colstore.KernelName()}
	window := 120 * time.Millisecond
	if o.Quick {
		window = 60 * time.Millisecond
	}
	for _, sh := range shapes {
		groups, err := checkGroupedAgainstScalar(st, sh)
		if err != nil {
			return nil, fmt.Errorf("groupby %s: %w", sh.Name, err)
		}
		kernelM, kernelG := groupedMRows(st, sh, groups.BytesTouched, window, false)
		scalarM, _ := groupedMRows(st, sh, groups.BytesTouched, window, true)
		portableM := kernelM
		if colstore.SIMDAvailable() {
			// Restore the prior dispatch state, not `true` (see RunScanKernels).
			prev := colstore.SetSIMD(false)
			portableM, _ = groupedMRows(st, sh, groups.BytesTouched, window, false)
			colstore.SetSIMD(prev)
		}
		p := GroupByShapePoint{
			Shape:         sh.Name,
			Groups:        len(groups.Groups),
			Ranges:        len(sh.Ranges),
			Path:          groups.Regime.String(),
			KernelMRows:   kernelM,
			KernelGBps:    kernelG,
			PortableMRows: portableM,
			ScalarMRows:   scalarM,
			VsFlat:        groupedVsFlatRatio(st, sh, window),
		}
		if scalarM > 0 {
			p.Speedup = kernelM / scalarM
		}
		switch sh.Name {
		case "gcount_1f_low":
			res.FastPathRatio = p.VsFlat
		case "gcount_2f_plan":
			res.PlanRatio = p.VsFlat
		}
		res.Shapes = append(res.Shapes, p)
	}
	return res, nil
}

// groupedVsFlatRatio measures a shape's grouped-vs-flat scan throughput
// as the median of per-pair ratios over alternating timed passes — not
// two windows timed minutes apart, where machine drift (not the kernels)
// can move either side by 20%.
func groupedVsFlatRatio(st *colstore.Store, sh colstore.GroupedBenchShape, window time.Duration) float64 {
	flatPass := func() {
		var res colstore.ScanResult
		for _, r := range sh.Ranges {
			st.ScanRange(sh.Flat, r[0], r[1], false, &res)
		}
	}
	var acc colstore.GroupAccumulator
	flatPass()
	groupedPass(st, sh, &acc) // warm-up (also builds the byte-code image)
	var ratios []float64
	start := time.Now()
	for time.Since(start) < window || len(ratios) < 3 {
		t0 := time.Now()
		flatPass()
		t1 := time.Now()
		groupedPass(st, sh, &acc)
		t2 := time.Now()
		if g := t2.Sub(t1); g > 0 {
			ratios = append(ratios, float64(t1.Sub(t0))/float64(g))
		}
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// groupedPass runs one grouped pass over the shape's ranges with the
// dispatched kernels, through acc — Reset per pass, the way a pooled
// query context reuses it — and returns the answer.
func groupedPass(st *colstore.Store, sh colstore.GroupedBenchShape, acc *colstore.GroupAccumulator) colstore.GroupedResult {
	acc.Reset(sh.Query, st)
	for _, r := range sh.Ranges {
		st.ScanRangeGrouped(sh.Query, r[0], r[1], false, acc)
	}
	return acc.Result()
}

// checkGroupedAgainstScalar compares one ScanRangeGrouped pass over the
// shape against the row-at-a-time scalar oracle, group by group, and
// returns the answer.
func checkGroupedAgainstScalar(st *colstore.Store, sh colstore.GroupedBenchShape) (colstore.GroupedResult, error) {
	got := groupedPass(st, sh, new(colstore.GroupAccumulator))
	var want colstore.GroupedResult
	for _, r := range sh.Ranges {
		st.ScanRangeGroupedScalar(sh.Query, r[0], r[1], false, &want)
	}
	if len(got.Groups) != len(want.Groups) {
		return got, fmt.Errorf("kernel found %d groups, scalar oracle %d", len(got.Groups), len(want.Groups))
	}
	for i, g := range got.Groups {
		if w := want.Groups[i]; g != w {
			return got, fmt.Errorf("group %d: kernel %+v, scalar oracle %+v", i, g, w)
		}
	}
	return got, nil
}

// groupedMRows measures single-thread grouped-scan throughput over the
// shape's ranges, returning Mrows/s and effective GB/s (planned column
// bytes per second, the group column charged as one extra stream).
func groupedMRows(st *colstore.Store, sh colstore.GroupedBenchShape, bytesPerPass uint64, window time.Duration, scalar bool) (float64, float64) {
	var acc colstore.GroupAccumulator
	scan := func() {
		if !scalar {
			groupedPass(st, sh, &acc)
			return
		}
		var res colstore.GroupedResult
		for _, r := range sh.Ranges {
			st.ScanRangeGroupedScalar(sh.Query, r[0], r[1], false, &res)
		}
	}
	scan() // warm-up
	passes := 0
	start := time.Now()
	for time.Since(start) < window || passes < 2 {
		scan()
		passes++
	}
	secs := time.Since(start).Seconds()
	return float64(passes) * float64(sh.Rows()) / secs / 1e6,
		float64(passes) * float64(bytesPerPass) / secs / 1e9
}

// GroupBy prints the grouped-aggregate experiment: the GROUP BY kernels
// against their scalar oracle and the flat scan they decorate.
func GroupBy(w io.Writer, o Options) {
	r, err := RunGroupBy(o)
	if err != nil {
		fmt.Fprintf(w, "GroupBy: FAILED: %v\n", err)
		return
	}
	section(w, "GroupBy", fmt.Sprintf("Grouped aggregates (%s) vs scalar oracle and the flat scan of the same ranges (%d rows; group cardinality %d, %d and %d)",
		r.Kernel, r.Rows, r.Keys[0], r.Keys[1], r.Keys[2]))
	t := newTable("shape", "groups", "ranges", "path", "kernel (Mrows/s)", "kernel (GB/s)", "portable (Mrows/s)", "scalar (Mrows/s)", "vs scalar", "vs flat")
	for _, p := range r.Shapes {
		t.add(p.Shape,
			fmt.Sprintf("%d", p.Groups),
			fmt.Sprintf("%d", p.Ranges),
			p.Path,
			fmt.Sprintf("%.0f", p.KernelMRows),
			fmt.Sprintf("%.1f", p.KernelGBps),
			fmt.Sprintf("%.0f", p.PortableMRows),
			fmt.Sprintf("%.0f", p.ScalarMRows),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.2fx", p.VsFlat))
	}
	t.print(w)
	fmt.Fprintf(w, "byte-code COUNT vs flat count_1f: %.2f (acceptance >= 0.5); plan-shaped GROUP BY vs flat over the same ranges: %.2f\n",
		r.FastPathRatio, r.PlanRatio)
}
