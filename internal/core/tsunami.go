// Package core implements Tsunami (§3): a composition of a Grid Tree, which
// partitions data space into regions with low query skew, and one Augmented
// Grid per region, optimized over only the points and queries intersecting
// that region. The package also builds the paper's ablations (Fig 12a):
// Augmented Grid only (one grid over the whole space) and Grid Tree only
// (a Flood-style independent grid in each region), and its Flood baseline
// (§6.1), the all-Independent special case of the Augmented Grid: one
// Flood-style grid over the whole space. Every variant answers through
// the same plan and scan.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/query"
)

// Variant selects which of Tsunami's components are active.
type Variant int

const (
	// FullTsunami uses the Grid Tree with an Augmented Grid per region.
	FullTsunami Variant = iota
	// AugGridOnly builds a single Augmented Grid over the whole space.
	AugGridOnly
	// GridTreeOnly builds the Grid Tree with a Flood-style independent
	// grid in each region.
	GridTreeOnly
	// Flood [Nathan et al., SIGMOD 2020] builds one Flood-style grid over
	// the whole space: per-dimension CDF partitioning, a within-cell sort
	// dimension, and partition counts optimized against Tsunami's cost
	// model (the §6.1 modified Flood).
	Flood
)

func (v Variant) String() string {
	switch v {
	case FullTsunami:
		return "Tsunami"
	case AugGridOnly:
		return "AugGrid-only"
	case GridTreeOnly:
		return "GridTree-only"
	case Flood:
		return "Flood"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config controls a Tsunami build; zero values take paper defaults.
type Config struct {
	Variant  Variant
	GridTree gridtree.Config
	Grid     auggrid.OptimizeConfig
	// Optimizer searches region layouts (default auggrid.AGD()).
	Optimizer auggrid.Optimizer
	// MinRowsForGrid skips building a grid for regions smaller than this —
	// a plain scan of a tiny contiguous region beats grid overhead
	// (default 1024; never reached at the paper's scale).
	MinRowsForGrid int
	// Parallelism bounds the number of regions optimized concurrently
	// (§6.1: "optimization and data sorting for index creation are
	// performed in parallel"). Default runtime.NumCPU(); 1 disables.
	Parallelism int
}

// fill sets the defaults every index holds, built (Build) or loaded
// (Load).
func (c *Config) fill() {
	if c.Optimizer.Name == "" {
		c.Optimizer = auggrid.AGD()
	}
	if c.MinRowsForGrid == 0 {
		c.MinRowsForGrid = 1024
	}
}

// regionOptimizer is how the variant lays out a region's grid, at build
// and at every re-optimization: a Flood-style grid (GridTreeOnly, Flood)
// keeps the all-Independent skeleton, with the FM and CCDF heuristics off,
// and descends over partition counts only (GD); the other variants search
// with the configured optimizer.
func (c *Config) regionOptimizer() (auggrid.Optimizer, auggrid.OptimizeConfig) {
	opt, gcfg := c.Optimizer, c.Grid
	if c.Variant == GridTreeOnly || c.Variant == Flood {
		opt = auggrid.GD()
		gcfg.FMErrFrac = -1    // disable FM heuristic
		gcfg.CCDFEmptyFrac = 2 // disable CCDF heuristic
	}
	return opt, gcfg
}

// Tsunami is a built index. A built Tsunami is immutable on the read path:
// Execute and RegionsVisited keep all per-query state in pooled
// execution contexts, so one shared index serves any number of concurrent
// callers. Nothing else writes it either: CopyWithInserts,
// MergedCopy, ReoptimizeRegionsCopy, SplitRange and Reoptimize each
// derive a successor and leave the receiver serving.
type Tsunami struct {
	cfg    Config
	store  *colstore.Store
	tree   *gridtree.Tree
	grids  []*auggrid.Grid // aligned with tree.Regions; nil = unindexed region
	bounds [][2]int        // physical [start, end) per region
	stats  index.BuildStats

	// Insert buffering (§8): per-region delta siblings, folded in by
	// MergedCopy.
	deltas      map[int]*delta
	numBuffered int
}

// execContext bundles the per-query scratch of one run through the
// pipeline: the region list produced by the Grid Tree, the grid-level
// context threaded through every region grid, the planned ranges and
// where each region's ranges start, and a grouped query's accumulator.
// Contexts are pooled so Execute keeps its one-argument signature while
// staying allocation-free and safe for arbitrary concurrent callers. A context Plan filled is the index's
// index.Plan: it also holds the query, the index and how to run it.
type execContext struct {
	t       *Tsunami
	q       query.Query
	x       index.Exec
	planned time.Duration // a traced plan's planning time, for the trace's Total
	regions []*gridtree.Region
	grid    *auggrid.ExecContext
	phys    []auggrid.PhysRange       // the plan: every range the query scans
	starts  []int                     // regions[i]'s ranges are phys[starts[i]:starts[i+1]]
	acc     colstore.GroupAccumulator // grouped queries' cells, Reset per query
}

var execCtxPool = sync.Pool{
	New: func() any { return &execContext{grid: auggrid.NewExecContext()} },
}

// Build optimizes and constructs the index over a reordered copy of st for the
// sample workload (§3): optimize the Grid Tree on the full dataset and
// workload, then optimize an Augmented Grid per region on only the points
// and queries intersecting it, then reorganize the data.
func Build(st *colstore.Store, workload []query.Query, cfg Config) *Tsunami {
	cfg.fill()
	t := &Tsunami{cfg: cfg}

	optStart := time.Now()
	var tree *gridtree.Tree
	if cfg.Variant == AugGridOnly || cfg.Variant == Flood {
		tree = singleRegionTree(st, workload)
	} else {
		tree = gridtree.Build(st, workload, cfg.GridTree)
	}
	t.tree = tree

	// Optimize and build a grid per region that has intersecting queries
	// (§3: regions no query touches get no index). Regions are optimized
	// concurrently (§6.1); each worker only reads the shared store.
	t.grids = make([]*auggrid.Grid, len(tree.Regions))
	t.bounds = make([][2]int, len(tree.Regions))
	ordered := make([][]int, len(tree.Regions))

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	opt, gcfg := cfg.regionOptimizer()
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, r := range tree.Regions {
		if len(r.Queries) == 0 || len(r.Rows) < cfg.MinRowsForGrid {
			ordered[r.ID] = r.Rows
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(r *gridtree.Region) {
			defer func() { <-sem; wg.Done() }()
			layout, _ := auggrid.Optimize(st, r.Rows, r.Queries, opt, gcfg)
			g, ord, err := auggrid.Build(st, r.Rows, layout)
			if err != nil {
				// An invalid optimized layout is a bug; fall back to a
				// scan region rather than failing the whole build.
				ordered[r.ID] = r.Rows
				return
			}
			t.grids[r.ID] = g
			ordered[r.ID] = ord
		}(r)
	}
	wg.Wait()

	perm := make([]int, 0, st.NumRows())
	for _, r := range tree.Regions {
		start := len(perm)
		perm = append(perm, ordered[r.ID]...)
		t.bounds[r.ID] = [2]int{start, len(perm)}
		// The row ids fed the build and are stale once the store is
		// reordered; bounds carry the region's extent from here on.
		r.Rows = nil
	}
	optTotal := time.Since(optStart).Seconds()

	sortStart := time.Now()
	t.store = st.Gather(perm, nil)
	for id, g := range t.grids {
		if g != nil {
			t.grids[id] = g.Bind(t.store, t.bounds[id][0])
		}
	}
	sortSecs := time.Since(sortStart).Seconds()

	t.stats = index.BuildStats{SortSeconds: sortSecs, OptimizeSeconds: optTotal}
	return t
}

// singleRegionTree wraps the whole space in one region (AugGridOnly,
// Flood).
func singleRegionTree(st *colstore.Store, workload []query.Query) *gridtree.Tree {
	d := st.NumDims()
	lo := make([]int64, d)
	hi := make([]int64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = st.MinMax(j)
	}
	rows := make([]int, st.NumRows())
	for i := range rows {
		rows[i] = i
	}
	r := &gridtree.Region{Lo: lo, Hi: hi, Rows: rows, Queries: workload, ID: 0}
	return &gridtree.Tree{
		Root:     &gridtree.Node{Region: r},
		Regions:  []*gridtree.Region{r},
		NumNodes: 1,
		Depth:    1,
	}
}

// Name implements index.Index.
func (t *Tsunami) Name() string { return t.cfg.Variant.String() }

// BuildStats returns the build timing split (Fig 9b).
func (t *Tsunami) BuildStats() index.BuildStats { return t.stats }

// Execute implements index.Index: ExecuteWith, inline and untraced.
func (t *Tsunami) Execute(q query.Query) colstore.ScanResult {
	return t.ExecuteWith(q, index.Exec{})
}

// ExecuteGrouped is Execute; a query built with By carries its own
// grouping, so the name adds nothing and is kept for callers that have it.
func (t *Tsunami) ExecuteGrouped(q query.Query) colstore.GroupedResult {
	return t.ExecuteWith(q, index.Exec{})
}

// ExecuteWith is the index's one execution pipeline (§3 query workflow):
// Plan, then Execute. Safe for any number of concurrent callers against
// the same index (see the Tsunami doc comment for the read/write
// contract).
func (t *Tsunami) ExecuteWith(q query.Query, x index.Exec) colstore.ScanResult {
	return t.Plan(q, x).Execute()
}

// Plan is the pipeline's plan step: route q through the Grid Tree and let
// each routed region's Augmented Grid turn the filters into physical
// ranges, into a pooled context. Nothing is scanned until the plan
// executes: then the ranges are scanned on the calling goroutine and the
// routed regions' buffered inserts folded in. A grouped query runs the
// same plan (GROUP BY never changes which rows a query touches, only what
// is folded per matching row) through the grouped scan kernel into the
// context's pooled accumulator. With x.Trace set the same code stamps
// stage times as it goes and records a span per routed region.
func (t *Tsunami) Plan(q query.Query, x index.Exec) index.Plan {
	ctx := execCtxPool.Get().(*execContext)
	ctx.t, ctx.q, ctx.x = t, q, x
	var began time.Time
	if x.Trace != nil {
		began = time.Now()
	}
	ctx.regions = t.tree.FindRegions(q, ctx.regions[:0])
	ctx.phys, ctx.starts = ctx.phys[:0], append(ctx.starts[:0], 0)
	for _, r := range ctx.regions {
		if g := t.grids[r.ID]; g != nil {
			ctx.phys, _ = g.PlanRanges(q, ctx.grid, ctx.phys)
		} else if b := t.bounds[r.ID]; b[0] < b[1] {
			// An unindexed region is one range.
			ctx.phys = append(ctx.phys, auggrid.PhysRange{Start: b[0], End: b[1], Exact: q.ContainsBox(r.Lo, r.Hi)})
		}
		ctx.starts = append(ctx.starts, len(ctx.phys))
	}
	if tr := x.Trace; tr != nil {
		ctx.planned = tr.Stage("plan", began, fmt.Sprintf("%d of %d regions routed, %d ranges planned",
			len(ctx.regions), len(t.tree.Regions), len(ctx.phys))).Sub(began)
	}
	return ctx
}

// Cost prices the plan (see index.Plan): every planned row, plus the
// buffered delta rows of the routed regions (the ones Execute folds in),
// times 8 bytes per column read — each filter column, the SUM column, and
// a grouped query's key column as one extra stream: ScanResult's
// PointsScanned and BytesTouched as bounds, since an exact range reads
// fewer columns.
func (ctx *execContext) Cost() (rows, bytes uint64) {
	for _, pr := range ctx.phys {
		rows += uint64(pr.End - pr.Start)
	}
	for _, r := range ctx.regions {
		if d := ctx.t.deltas[r.ID]; d != nil {
			rows += uint64(len(d.rows))
		}
	}
	q := ctx.q
	cols := uint64(len(q.Filters))
	if q.Agg == query.Sum {
		cols++
	}
	if q.Grouped() {
		cols++
	}
	return rows, rows * 8 * cols
}

// Release returns the context to the pool without executing it.
func (ctx *execContext) Release() {
	ctx.t, ctx.q, ctx.x, ctx.planned = nil, query.Query{}, index.Exec{}, 0
	execCtxPool.Put(ctx)
}

// Execute scans the plan and the routed regions' buffered rows, and
// releases the context.
func (ctx *execContext) Execute() colstore.ScanResult {
	defer ctx.Release()
	t, q, tr := ctx.t, ctx.q, ctx.x.Trace
	var began, mark time.Time
	if tr != nil {
		// Total counts the planning and this execution, not whatever ran
		// between them (a sharded plan plans every shard first).
		mark = time.Now()
		began = mark.Add(-ctx.planned)
	}

	// A flat query's matches land in res directly, a grouped query's in
	// the context's accumulator. A traced run scans the same ranges with
	// the same routine, region by region, to give each region its span.
	var res colstore.ScanResult
	var acc *colstore.GroupAccumulator
	if q.Grouped() {
		acc = &ctx.acc
		acc.Reset(q, t.store)
	}
	var first int // the first of this run's spans in tr.Regions
	if tr == nil {
		auggrid.ScanRanges(t.store, q, ctx.phys, &res, acc)
	} else {
		first = len(tr.Regions)
		for i, r := range ctx.regions {
			sp := obs.RegionSpan{Region: r.ID, Rows: t.regionRows(r.ID), Ranges: ctx.starts[i+1] - ctx.starts[i]}
			if g := t.grids[r.ID]; g != nil {
				sp.GridCells = g.NumCells()
			}
			tr.Regions = append(tr.Regions, sp)
		}
		ctx.traceRegions(tr.Regions[first:], &res, acc, func(i int) {
			auggrid.ScanRanges(t.store, q, ctx.phys[ctx.starts[i]:ctx.starts[i+1]], &res, acc)
		})
		name, detail := "scan", ""
		if acc != nil {
			name, detail = "scan+group", "regime "+acc.Regime().String()
		}
		mark = tr.Stage(name, mark, detail)
	}

	var scanned int
	if tr == nil {
		scanned = t.scanDeltas(q, ctx.regions, &res, acc)
	} else {
		ctx.traceRegions(tr.Regions[first:], &res, acc, func(i int) {
			scanned += t.scanDeltas(q, ctx.regions[i:i+1], &res, acc)
		})
		mark = tr.Stage("delta", mark, fmt.Sprintf("%d of %d buffered rows scanned", scanned, t.numBuffered))
	}

	if acc != nil {
		res = acc.Result()
	}
	if tr != nil {
		if acc != nil {
			mark = tr.Stage("merge", mark, fmt.Sprintf("%d groups assembled", len(res.Groups)))
		}
		tr.Query = q.String()
		tr.Total = mark.Sub(began)
		tr.Rows = res.PointsScanned
		tr.Bytes = res.BytesTouched
	}
	return res
}

// traceRegions runs scan(i) for every routed region i and adds the rows
// it scanned and matched to spans[i], read off the running answer (the
// accumulator's, for a grouped query).
func (ctx *execContext) traceRegions(spans []obs.RegionSpan, res *colstore.ScanResult, acc *colstore.GroupAccumulator, scan func(i int)) {
	tally := func() (scanned, matched uint64) {
		if acc != nil {
			r := acc.Result()
			return r.PointsScanned, r.Count
		}
		return res.PointsScanned, res.Count
	}
	for i := range ctx.regions {
		s0, m0 := tally()
		scan(i)
		s1, m1 := tally()
		spans[i].Scanned += s1 - s0
		spans[i].Matched += m1 - m0
	}
}

// SizeBytes implements index.Index: the Grid Tree plus every region grid.
func (t *Tsunami) SizeBytes() uint64 {
	size := t.tree.SizeBytes()
	for _, g := range t.grids {
		if g != nil {
			size += g.SizeBytes()
		}
	}
	return size
}

// regionRows is the number of clustered rows in region id.
func (t *Tsunami) regionRows(id int) int { return t.bounds[id][1] - t.bounds[id][0] }

// Store returns the reorganized column store (tests use it as ground
// truth).
func (t *Tsunami) Store() *colstore.Store { return t.store }

// Reoptimize rebuilds the index for a new workload (§6.4, Fig 9a) and
// returns the rebuilt index and the re-optimization wall time.
func (t *Tsunami) Reoptimize(workload []query.Query) (*Tsunami, float64) {
	start := time.Now()
	nt := Build(t.store, workload, t.cfg)
	return nt, time.Since(start).Seconds()
}

// Stats are the Tab 4 index statistics.
type Stats struct {
	NumGridTreeNodes      int
	GridTreeDepth         int
	NumLeafRegions        int
	MinPointsPerRegion    int
	MedianPointsPerRegion int
	MaxPointsPerRegion    int
	AvgFMsPerRegion       float64
	AvgCCDFsPerRegion     float64
	TotalGridCells        int
}

// RegionsVisited returns how many Grid Tree regions q intersects.
func (t *Tsunami) RegionsVisited(q query.Query) int {
	ctx := execCtxPool.Get().(*execContext)
	ctx.regions = t.tree.FindRegions(q, ctx.regions[:0])
	n := len(ctx.regions)
	execCtxPool.Put(ctx)
	return n
}

// EstimateCost is the price of q's plan, planned and released unexecuted
// (see Plan and index.Plan's Cost).
func (t *Tsunami) EstimateCost(q query.Query) (rows, bytes uint64) {
	p := t.Plan(q, index.Exec{})
	defer p.Release()
	return p.Cost()
}

// DebugRegions renders per-region layout summaries for diagnostics.
func (t *Tsunami) DebugRegions() string {
	out := ""
	for id, r := range t.tree.Regions {
		out += fmt.Sprintf("region %d: rows=%d queries=%d", id, t.regionRows(id), len(r.Queries))
		if g := t.grids[id]; g != nil {
			out += fmt.Sprintf(" cells=%d layout=%v", g.NumCells(), g.Layout())
		}
		out += "\n"
	}
	return out
}

// IndexStats reports the optimized structure statistics (Tab 4).
func (t *Tsunami) IndexStats() Stats {
	s := Stats{
		NumGridTreeNodes: t.tree.NumNodes,
		GridTreeDepth:    t.tree.Depth,
		NumLeafRegions:   len(t.tree.Regions),
	}
	var pts []int
	var fms, ccdfs, gridRegions int
	for id, g := range t.grids {
		pts = append(pts, t.regionRows(id))
		if g != nil {
			f, c := g.Layout().Skeleton.CountKinds()
			fms += f
			ccdfs += c
			gridRegions++
			s.TotalGridCells += g.NumCells()
		}
	}
	sort.Ints(pts)
	if len(pts) > 0 {
		s.MinPointsPerRegion = pts[0]
		s.MedianPointsPerRegion = pts[len(pts)/2]
		s.MaxPointsPerRegion = pts[len(pts)-1]
	}
	if gridRegions > 0 {
		s.AvgFMsPerRegion = float64(fms) / float64(gridRegions)
		s.AvgCCDFsPerRegion = float64(ccdfs) / float64(gridRegions)
	}
	return s
}
