// Package flood implements Flood [Nathan et al., SIGMOD 2020] as evaluated
// in the Tsunami paper (§6.1): a single grid over the whole data space with
// per-dimension CDF partitioning, a within-cell sort dimension refined by
// binary search, and partition counts optimized against Tsunami's cost
// model. This is exactly the all-Independent special case of the Augmented
// Grid, so the package wraps that engine with Flood's restrictions:
// the skeleton is fixed to Independent and only P is optimized.
package flood

import (
	"time"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// Config controls the Flood build.
type Config struct {
	// Grid carries the evaluator/search knobs shared with the Augmented
	// Grid optimizer.
	Grid auggrid.OptimizeConfig
}

// Index is a built Flood index.
type Index struct {
	store *colstore.Store
	grid  *auggrid.Grid
	stats index.BuildStats
}

// Build optimizes the grid for the workload and constructs the index over
// a clone of st.
func Build(st *colstore.Store, workload []query.Query, cfg Config) *Index {
	optStart := time.Now()
	clone := st.Clone()
	rows := make([]int, clone.NumRows())
	for i := range rows {
		rows[i] = i
	}
	gcfg := cfg.Grid
	gcfg.UseSortDim = true
	// Flood's skeleton is fixed: disable the correlation heuristics so the
	// initial skeleton is all-Independent, and use GD (P-only descent).
	gcfg.FMErrFrac = -1
	gcfg.CCDFEmptyFrac = 2
	layout, _ := auggrid.Optimize(clone, rows, workload, auggrid.GD(), gcfg)
	g, ordered, err := auggrid.Build(clone, rows, layout)
	if err != nil {
		panic("flood: " + err.Error()) // GD only emits valid independent layouts
	}
	opt := time.Since(optStart).Seconds()

	sortStart := time.Now()
	if err := clone.Reorder(ordered); err != nil {
		panic("flood: " + err.Error())
	}
	g.Finalize(clone, 0)
	return &Index{
		store: clone,
		grid:  g,
		stats: index.BuildStats{
			SortSeconds:     time.Since(sortStart).Seconds(),
			OptimizeSeconds: opt,
		},
	}
}

// Name implements index.Index.
func (x *Index) Name() string { return "Flood" }

// Execute implements index.Index. The grid is immutable and per-query
// state lives in a pooled ExecContext, so one shared Flood index serves
// any number of concurrent callers; inexact cell ranges filter on the
// store's branch-free scan kernel.
func (x *Index) Execute(q query.Query) colstore.ScanResult {
	res, _ := x.grid.Execute(q, nil)
	return res
}

// SizeBytes implements index.Index.
func (x *Index) SizeBytes() uint64 { return x.grid.SizeBytes() }

// NumCells returns the grid cell count (Tab 4 reports it against
// Tsunami's).
func (x *Index) NumCells() int { return x.grid.NumCells() }

// Layout returns the optimized layout.
func (x *Index) Layout() auggrid.Layout { return x.grid.Layout() }

// BuildStats returns the build timing split (Fig 9b).
func (x *Index) BuildStats() index.BuildStats { return x.stats }

// Reoptimize rebuilds for a new workload (Fig 9a) and returns the rebuilt
// index plus wall time.
func (x *Index) Reoptimize(workload []query.Query, cfg Config) (*Index, float64) {
	start := time.Now()
	nx := Build(x.store, workload, cfg)
	return nx, time.Since(start).Seconds()
}
