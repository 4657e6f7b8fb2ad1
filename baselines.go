package tsunami

import (
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/octree"
	"repro/internal/singledim"
	"repro/internal/zindex"
)

// The paper evaluates Tsunami against five baselines over the same column
// store (§6.1). Each constructor clones the table and clusters its own copy.

// FloodIndex is a built Flood index (the learned baseline Tsunami
// extends). Flood is a variant of the Tsunami index, so it is one type.
type FloodIndex = core.Tsunami

// NewFlood builds Flood: a single learned grid with independent CDF
// partitioning per dimension, optimized for the workload with Tsunami's
// cost model (the §6.1 modified Flood).
func NewFlood(table *Table, workload []Query, o Options) *FloodIndex {
	return core.Build(table, workload, o.coreConfig(core.Flood))
}

// NewKDTree builds the k-d tree baseline: median splits, dimensions cycled
// in workload-selectivity order, leaves of at most pageSize points
// (pageSize <= 0 uses 4096).
func NewKDTree(table *Table, workload []Query, pageSize int) Index {
	return kdtree.Build(table, workload, pageSize)
}

// NewHyperoctree builds the hyperoctree baseline: equal 2^d subdivision
// until leaves hold at most pageSize points.
func NewHyperoctree(table *Table, pageSize int) Index {
	return octree.Build(table, pageSize)
}

// NewZOrder builds the Z-order baseline: points ordered by bit-interleaved
// quantized coordinates, grouped into pages with min/max metadata.
func NewZOrder(table *Table, pageSize int) Index {
	return zindex.Build(table, pageSize)
}

// NewSingleDim builds the clustered single-dimensional baseline: data
// sorted by the workload's most selective dimension (or byDim if >= 0).
func NewSingleDim(table *Table, workload []Query, byDim int) Index {
	return singledim.Build(table, workload, byDim)
}

// NewFullScan wraps the table in the trivial scan-everything index, the
// ground truth for tests.
func NewFullScan(table *Table) Index {
	return index.NewFullScan(table)
}
