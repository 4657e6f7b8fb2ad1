package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/obs"
	"repro/internal/query"
)

// Grouped execution mirrors the flat paths in tsunami.go stage for
// stage: Grid Tree routing and physical-range planning are identical
// (GROUP BY never changes which rows a query touches, only what is
// folded per matching row), the per-range scan runs the grouped
// selection-vector kernel, and partials merge exactly because every
// group carries a (count, sum) pair.

// ExecuteGrouped answers a grouped aggregate query sequentially:
// traverse the Grid Tree, fold each routed region (grid or plain range)
// into the context's pooled accumulator, fold the buffered delta rows,
// and assemble the sorted per-group result — the query's one
// allocation. The concurrency contract matches Execute.
func (t *Tsunami) ExecuteGrouped(q query.Query) colstore.GroupedResult {
	ctx := execCtxPool.Get().(*execContext)
	defer execCtxPool.Put(ctx)
	ctx.regions = t.tree.FindRegions(q, ctx.regions[:0])
	return t.executeRegionsGrouped(q, ctx.regions, ctx)
}

func (t *Tsunami) executeRegionsGrouped(q query.Query, regions []*gridtree.Region, ctx *execContext) colstore.GroupedResult {
	ctx.acc.Reset(q, t.store)
	for _, r := range regions {
		t.executeRegionGrouped(q, r, ctx.grid, &ctx.acc)
	}
	t.scanDeltasGrouped(q, regions, &ctx.acc)
	return ctx.acc.Result()
}

// executeRegionGrouped answers q within one region: grid regions plan
// through their Augmented Grid, unindexed regions scan their physical
// range, both through the grouped kernel.
func (t *Tsunami) executeRegionGrouped(q query.Query, r *gridtree.Region, gctx *auggrid.ExecContext, acc *colstore.GroupAccumulator) {
	if g := t.grids[r.ID]; g != nil {
		g.ExecuteGrouped(q, gctx, acc)
		return
	}
	b := t.bounds[r.ID]
	t.store.ScanRangeGrouped(q, b[0], b[1], regionContained(q, r), acc)
}

// scanDeltasGrouped folds matching buffered rows of the routed regions
// into the accumulator, mirroring scanDeltas' accounting (each buffered
// row is one scanned point).
func (t *Tsunami) scanDeltasGrouped(q query.Query, regions []*gridtree.Region, acc *colstore.GroupAccumulator) {
	if t.numBuffered == 0 {
		return
	}
	gd := q.GroupDim()
	for _, r := range regions {
		d := t.deltas[r.ID]
		if d == nil {
			continue
		}
		for _, row := range d.rows {
			acc.AddScanned(1, 0)
			if q.MatchesRow(row) {
				var v int64
				if q.Agg == query.Sum {
					v = row[q.AggDim]
				}
				acc.AddRow(row[gd], v)
			}
		}
	}
}

// ExecuteGroupedParallel answers one grouped query with intra-query
// parallelism, mirroring ExecuteParallel: workers drain regions (or
// sub-region chunks) into per-worker accumulators and the sorted
// partials merge exactly.
func (t *Tsunami) ExecuteGroupedParallel(q query.Query, workers int) colstore.GroupedResult {
	return t.ExecuteGroupedParallelOn(q, workers, nil)
}

// ExecuteGroupedParallelOn is ExecuteGroupedParallel with task
// scheduling delegated to the caller, with the same submit contract as
// ExecuteParallelOn: tasks never block on other tasks, so a shared pool
// cannot deadlock.
func (t *Tsunami) ExecuteGroupedParallelOn(q query.Query, workers int, submit func(task func())) colstore.GroupedResult {
	ctx := execCtxPool.Get().(*execContext)
	defer execCtxPool.Put(ctx)
	ctx.regions = t.tree.FindRegions(q, ctx.regions[:0])
	regions := ctx.regions
	if workers <= 1 || len(regions) == 0 {
		return t.executeRegionsGrouped(q, regions, ctx)
	}
	if submit == nil {
		submit = func(task func()) { go task() }
	}
	if len(regions) < 4*workers {
		return t.executeGroupedChunked(q, regions, ctx, workers, submit)
	}
	return t.drainGrouped(q, ctx, len(regions), workers, submit, func(i int, w *execContext) {
		t.executeRegionGrouped(q, regions[i], w.grid, &w.acc)
	})
}

// executeGroupedChunked is the sub-region grouped parallel path: the
// same chunk plan as executeChunked, drained into per-worker grouped
// accumulators.
func (t *Tsunami) executeGroupedChunked(q query.Query, regions []*gridtree.Region, ctx *execContext, workers int, submit func(task func())) colstore.GroupedResult {
	ctx.phys = ctx.phys[:0]
	for _, r := range regions {
		if g := t.grids[r.ID]; g != nil {
			ctx.phys, _ = g.PlanRanges(q, ctx.grid, ctx.phys)
			continue
		}
		b := t.bounds[r.ID]
		if b[0] < b[1] {
			ctx.phys = append(ctx.phys, auggrid.PhysRange{Start: b[0], End: b[1], Exact: regionContained(q, r)})
		}
	}
	ctx.chunks = ctx.chunks[:0]
	for _, pr := range ctx.phys {
		for s := pr.Start; s < pr.End; s += chunkRows {
			e := s + chunkRows
			if e > pr.End {
				e = pr.End
			}
			ctx.chunks = append(ctx.chunks, auggrid.PhysRange{Start: s, End: e, Exact: pr.Exact})
		}
	}
	chunks := ctx.chunks
	if len(chunks) < 2 {
		ctx.acc.Reset(q, t.store)
		for _, c := range chunks {
			t.store.ScanRangeGrouped(q, c.Start, c.End, c.Exact, &ctx.acc)
		}
		t.scanDeltasGrouped(q, regions, &ctx.acc)
		return ctx.acc.Result()
	}
	return t.drainGrouped(q, ctx, len(chunks), workers, submit, func(i int, w *execContext) {
		c := chunks[i]
		t.store.ScanRangeGrouped(q, c.Start, c.End, c.Exact, &w.acc)
	})
}

// drainGrouped runs scan(i, w) for every i in [0, n) across up to
// workers submitted tasks — each pulls the next i from a shared cursor
// and folds into its own pooled context's accumulator — then merges the
// workers' partials and, through the caller's ctx, the delta buffers of
// ctx.regions.
func (t *Tsunami) drainGrouped(q query.Query, ctx *execContext, n, workers int, submit func(task func()), scan func(i int, w *execContext)) colstore.GroupedResult {
	workers = min(workers, n)
	var cursor atomic.Int64
	partial := make([]colstore.GroupedResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		w := w
		submit(func() {
			defer wg.Done()
			wctx := execCtxPool.Get().(*execContext)
			defer execCtxPool.Put(wctx)
			wctx.acc.Reset(q, t.store)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				scan(i, wctx)
			}
			partial[w] = wctx.acc.Result()
		})
	}
	wg.Wait()
	var res colstore.GroupedResult
	for _, p := range partial {
		res.Merge(p)
	}
	if t.numBuffered > 0 {
		ctx.acc.Reset(q, t.store)
		t.scanDeltasGrouped(q, ctx.regions, &ctx.acc)
		res.Merge(ctx.acc.Result())
	}
	return res
}

// ExecuteGroupedTrace answers a grouped query exactly like
// ExecuteGrouped while recording an explain-analyze trace: routing,
// the fused scan+group stage, the delta fold, and the final merge
// (sorted result assembly) are timed per stage.
func (t *Tsunami) ExecuteGroupedTrace(q query.Query) (colstore.GroupedResult, *obs.QueryTrace) {
	tr := &obs.QueryTrace{Query: q.String()}
	total := time.Now()
	ctx := execCtxPool.Get().(*execContext)
	defer execCtxPool.Put(ctx)

	start := time.Now()
	ctx.regions = t.tree.FindRegions(q, ctx.regions[:0])
	tr.AddStage("plan", time.Since(start),
		fmt.Sprintf("%d of %d regions routed", len(ctx.regions), len(t.tree.Regions)))

	acc := &ctx.acc
	acc.Reset(q, t.store)
	start = time.Now()
	for _, r := range ctx.regions {
		t.executeRegionGrouped(q, r, ctx.grid, acc)
	}
	tr.AddStage("scan+group", time.Since(start), "regime "+acc.Regime().String())

	start = time.Now()
	t.scanDeltasGrouped(q, ctx.regions, acc)
	tr.AddStage("delta", time.Since(start),
		fmt.Sprintf("%d buffered rows visible", t.numBuffered))

	start = time.Now()
	res := acc.Result()
	tr.AddStage("merge", time.Since(start),
		fmt.Sprintf("%d groups assembled", len(res.Groups)))

	tr.Total = time.Since(total)
	tr.Rows = res.PointsScanned
	tr.Bytes = res.BytesTouched
	tr.Regions = len(ctx.regions)
	return res, tr
}
