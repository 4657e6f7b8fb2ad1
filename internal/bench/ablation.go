package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Ablations benchmarks the design choices DESIGN.md calls out by switching
// each off in isolation and re-measuring Tsunami on the paper's datasets:
//
//   - the within-cell sort dimension and its binary-search refinement
//     (Flood's §2.2 refinement, kept by the Augmented Grid);
//   - functional mappings (§5.2.1);
//   - conditional CDFs (§5.2.2);
//   - the additive merge epsilon that keeps low-cardinality dimensions
//     from shattering the Grid Tree (a scale guard added by this
//     implementation);
//   - outlier-robust functional mappings (§8), measured in the ON
//     direction since the base configuration disables them.
func Ablations(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Ablation", "Design-choice ablations (Tsunami variants)")

	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"Tsunami (full)", func(c *core.Config) {}},
		{"no sort-dim refinement", func(c *core.Config) { c.Grid.NoSortDim = true }},
		{"no functional mappings", func(c *core.Config) { c.Grid.FMErrFrac = -1 }},
		{"no conditional CDFs", func(c *core.Config) { c.Grid.CCDFEmptyFrac = 2 }},
		{"no FMs, no CCDFs", func(c *core.Config) {
			c.Grid.FMErrFrac = -1
			c.Grid.CCDFEmptyFrac = 2
		}},
		{"no merge epsilon", func(c *core.Config) { c.GridTree.MergeEps = -1e-12 }},
		{"robust mappings (1% buffer)", func(c *core.Config) { c.Grid.OutlierFrac = 0.01 }},
	}

	for _, dc := range paperDatasets(o) {
		fmt.Fprintf(w, "\n%s:\n", dc.ds.Name)
		t := newTable("variant", "avg query", "vs full", "index size")
		var fullNs float64
		for _, v := range variants {
			cfg := o.tsunamiConfig(core.FullTsunami)
			v.mut(&cfg)
			idx := core.Build(dc.ds.Store, dc.work, cfg)
			if err := checkCorrect(idx, dc.ds.Store, dc.work); err != nil {
				fmt.Fprintf(w, "CORRECTNESS FAILURE (%s): %v\n", v.name, err)
				return
			}
			ns := avgQueryNs(idx, dc.work)
			if v.name == "Tsunami (full)" {
				fullNs = ns
			}
			t.add(v.name, ms(ns), fmt.Sprintf("%.2fx", ns/fullNs), human(idx.SizeBytes()))
		}
		t.print(w)
	}
}
