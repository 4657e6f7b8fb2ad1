// Package tsunami is a Go implementation of Tsunami [Ding, Nathan, Alizadeh,
// Kraska — VLDB 2020], an in-memory, read-optimized, clustered learned
// multi-dimensional index that is robust to correlated data and skewed query
// workloads.
//
// Tsunami composes two structures: a Grid Tree, a lightweight decision tree
// that partitions data space into regions with low query skew, and an
// Augmented Grid per region, a generalization of Flood's learned grid that
// captures correlations through functional mappings and conditional CDFs.
// Both are optimized automatically for a dataset and a sample query
// workload.
//
// The package also exposes the paper's baselines — Flood, k-d tree,
// hyperoctree, Z-order, and a clustered single-dimensional index — over the
// same column store, plus the evaluation's dataset and workload generators,
// so the full experimental suite in the paper can be reproduced (see
// EXPERIMENTS.md).
//
// Every built index is immutable on the read path: Execute keeps per-query
// state in pooled execution contexts, so one shared index serves any number
// of concurrent goroutines with no cloning. Each query executes on the
// goroutine that asks for it; parallelism is across queries. For
// throughput-oriented serving, NewExecutor wraps an index in a fixed worker
// pool that spreads a batch's queries over it (ExecuteBatch) and admits
// served queries (Serve).
//
// Quick start:
//
//	table, _ := tsunami.NewTableFromRows(rows, []string{"time", "price", "qty"})
//	work := []tsunami.Query{
//		tsunami.Count(tsunami.Filter{Dim: 0, Lo: t0, Hi: t1}),
//	}
//	idx := tsunami.New(table, work, tsunami.Options{})
//	res := idx.Execute(tsunami.Count(tsunami.Filter{Dim: 0, Lo: t0, Hi: t1}))
//	fmt.Println(res.Count)
package tsunami

import (
	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/query"
)

// Filter is an inclusive range predicate over one dimension; Lo == Hi
// expresses equality.
type Filter = query.Filter

// NoLo and NoHi mark one side of a Filter as unbounded.
const (
	NoLo = query.NoLo
	NoHi = query.NoHi
)

// Query is a conjunctive multi-dimensional range query with a COUNT or SUM
// aggregation.
type Query = query.Query

// Result is a query's answer — the one result type: the aggregate as a
// (count, sum) pair, scan statistics, and for a grouped query (CountBy,
// SumBy, Query.By) one such pair per group, Count and Sum totalling them.
// Results merge exactly (Result.Merge) and compare with Result.Equal.
type Result = colstore.ScanResult

// Exec says how one query runs through ExecuteWith on a TsunamiIndex,
// LiveStore or ShardedStore: Trace collects an explain-analyze QueryTrace
// from the same run. Execute(q) is ExecuteWith(q, Exec{}).
type Exec = index.Exec

// Plan is one query planned by Plan(q, x) on a TsunamiIndex, LiveStore
// or ShardedStore, not yet scanned: Cost prices it, and then exactly one
// of Execute or Release is called. ExecuteWith(q, x) is
// Plan(q, x).Execute(); Executor.Serve admits on the plan's Cost.
type Plan = index.Plan

// Table is the in-memory column store indexes are clustered over.
type Table = colstore.Store

// Index is any clustered multi-dimensional index in this package.
type Index = index.Index

// Count builds a COUNT(*) query.
func Count(filters ...Filter) Query { return query.NewCount(filters...) }

// Sum builds a SUM(dim) query.
func Sum(dim int, filters ...Filter) Query { return query.NewSum(dim, filters...) }

// NewTable wraps column slices (all the same length) as a Table.
func NewTable(cols [][]int64, names []string) (*Table, error) {
	return colstore.FromColumns(cols, names)
}

// NewTableFromRows builds a Table from row-major data.
func NewTableFromRows(rows [][]int64, names []string) (*Table, error) {
	return colstore.FromRows(rows, names)
}

// Options configures a Tsunami build. The zero value uses the paper's
// defaults and is right for most uses.
type Options struct {
	// OptimizerIters bounds the adaptive-gradient-descent outer loop
	// (default 6).
	OptimizerIters int
	// SampleSize is the cost-model evaluation sample (default 2048).
	SampleSize int
	// MaxOptQueries caps the workload replayed by the cost model
	// (default 100).
	MaxOptQueries int
	// Seed drives all randomized pieces (default 1).
	Seed int64
}

func (o Options) coreConfig(v core.Variant) core.Config {
	return core.Config{
		Variant: v,
		Grid: auggrid.OptimizeConfig{
			Eval: auggrid.EvalConfig{
				SampleSize: o.SampleSize,
				MaxQueries: o.MaxOptQueries,
			},
			MaxIters: o.OptimizerIters,
			Seed:     o.Seed,
		},
	}
}

// TsunamiIndex is a built Tsunami index. It implements Index and exposes
// the paper's structure statistics and workload-shift re-optimization.
type TsunamiIndex = core.Tsunami

// Stats are the optimized index structure statistics (Tab 4 of the paper).
type Stats = core.Stats

// New optimizes and builds a Tsunami index over table for the sample
// workload. The table is cloned; the index owns its clustered copy.
func New(table *Table, workload []Query, o Options) *TsunamiIndex {
	return core.Build(table, workload, o.coreConfig(core.FullTsunami))
}

// NewAugGridOnly builds the Fig 12a ablation: a single Augmented Grid over
// the whole space (no Grid Tree).
func NewAugGridOnly(table *Table, workload []Query, o Options) *TsunamiIndex {
	return core.Build(table, workload, o.coreConfig(core.AugGridOnly))
}

// NewGridTreeOnly builds the Fig 12a ablation: the Grid Tree with a
// Flood-style independent grid in each region (no correlation handling).
func NewGridTreeOnly(table *Table, workload []Query, o Options) *TsunamiIndex {
	return core.Build(table, workload, o.coreConfig(core.GridTreeOnly))
}
