package sharded

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/query"
)

// readStableGrouped is readStable for grouped results: run fn against a
// stable topology, discarding and retrying the attempt if a migration's
// commit window overlaps it. The consistency argument is identical —
// grouped partials merge exactly (per-group count+sum pairs), so a
// retried read never double-counts or misses migrating rows.
func (s *Store) readStableGrouped(fn func(top *topology, scanned *int) colstore.GroupedResult) colstore.GroupedResult {
	m := s.metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	for attempt := 0; ; attempt++ {
		g := s.migrating.Load()
		if g&1 == 0 {
			var scanned int
			res := fn(s.topo.Load(), &scanned)
			if s.migrating.Load() == g {
				s.countRoute(scanned)
				if m != nil {
					m.latency.RecordDuration(time.Since(start))
				}
				return res
			}
		}
		if attempt < 4 {
			runtime.Gosched()
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// ExecuteGrouped answers one grouped aggregate (GROUP BY) scatter-gather
// style: route, execute the surviving shards on the calling goroutine,
// merge the per-shard grouped partials exactly (each group's count and
// sum add; AVG derives from the merged pair). Consistency and caching
// match Execute: reads retry around migration commit windows, and the
// router cache keys on the topology generation plus the routed shards'
// epoch vector.
func (s *Store) ExecuteGrouped(q query.Query) colstore.GroupedResult {
	w := s.workload
	if w == nil {
		return s.executeGroupedRouted(q)
	}
	start := time.Now()
	res := s.executeGroupedRouted(q)
	w.Record(q, time.Since(start), res.TotalCount(), res.PointsScanned, res.BytesTouched)
	return res
}

func (s *Store) executeGroupedRouted(q query.Query) colstore.GroupedResult {
	return s.readStableGrouped(func(top *topology, scanned *int) colstore.GroupedResult {
		ids := top.parts.Shards(q, make([]int, 0, len(s.shards)))
		*scanned = len(ids)
		vec, ver, cok := s.cacheKey(top, ids)
		if cok {
			if res, hit := s.cache.GetGrouped(ver, vec, q); hit {
				s.cacheHits.Add(1)
				return res
			}
			s.cacheMisses.Add(1)
		}
		var res colstore.GroupedResult
		if len(ids) == 1 {
			res = s.shards[ids[0]].ExecuteGrouped(q)
		} else {
			for _, id := range ids {
				res.Merge(s.shards[id].ExecuteGrouped(q))
			}
		}
		s.cachePutGroupedRouted(ver, vec, q, res, cok)
		return res
	})
}

// cachePutGroupedRouted stores a grouped scatter-gather result under the
// version vector captured before the shards executed; the safety argument
// is cachePutRouted's (a mixed-epoch result's vector can never match a
// recomputed current vector).
func (s *Store) cachePutGroupedRouted(ver uint64, vec []uint64, q query.Query, res colstore.GroupedResult, cok bool) {
	if !cok {
		return
	}
	if s.cache.PutGrouped(ver, vec, q, res) {
		s.cacheEvictions.Add(1)
	}
}

// ExecuteGroupedParallelOn is ExecuteGrouped with the surviving shards
// drained by up to workers tasks handed to submit (typically an
// Executor's worker pool). Tasks never block on other tasks; a nil
// submit spawns one goroutine per task.
func (s *Store) ExecuteGroupedParallelOn(q query.Query, workers int, submit func(task func())) colstore.GroupedResult {
	w := s.workload
	if w == nil {
		return s.executeGroupedParallelRouted(q, workers, submit)
	}
	start := time.Now()
	res := s.executeGroupedParallelRouted(q, workers, submit)
	w.Record(q, time.Since(start), res.TotalCount(), res.PointsScanned, res.BytesTouched)
	return res
}

func (s *Store) executeGroupedParallelRouted(q query.Query, workers int, submit func(task func())) colstore.GroupedResult {
	return s.readStableGrouped(func(top *topology, scanned *int) colstore.GroupedResult {
		ids := top.parts.Shards(q, make([]int, 0, len(s.shards)))
		*scanned = len(ids)
		vec, ver, cok := s.cacheKey(top, ids)
		if cok {
			if res, hit := s.cache.GetGrouped(ver, vec, q); hit {
				s.cacheHits.Add(1)
				return res
			}
			s.cacheMisses.Add(1)
		}
		w := workers
		if w > len(ids) {
			w = len(ids)
		}
		if w <= 1 {
			var res colstore.GroupedResult
			if len(ids) == 1 {
				res = s.shards[ids[0]].ExecuteGrouped(q)
			} else {
				for _, id := range ids {
					res.Merge(s.shards[id].ExecuteGrouped(q))
				}
			}
			s.cachePutGroupedRouted(ver, vec, q, res, cok)
			return res
		}
		sub := submit
		if sub == nil {
			sub = func(task func()) { go task() }
		}
		// Dynamic assignment, like executeParallelRouted: workers pull the
		// next shard from a shared cursor so skewed shard sizes don't idle
		// the pool.
		var cursor atomic.Int64
		partial := make([]colstore.GroupedResult, w)
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			k := k
			sub(func() {
				defer wg.Done()
				var res colstore.GroupedResult
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(ids) {
						break
					}
					res.Merge(s.shards[ids[i]].ExecuteGrouped(q))
				}
				partial[k] = res
			})
		}
		wg.Wait()
		var res colstore.GroupedResult
		for _, p := range partial {
			res.Merge(p)
		}
		s.cachePutGroupedRouted(ver, vec, q, res, cok)
		return res
	})
}

// ExecuteGroupedTrace answers q exactly like ExecuteGrouped while
// recording an explain-analyze trace: the router's pruning decision, a
// per-shard span for every surviving shard, and the gather-merge cost.
// Shards execute sequentially so spans attribute time exactly; a seqlock
// retry rebuilds the trace from scratch, like ExecuteTrace.
func (s *Store) ExecuteGroupedTrace(q query.Query) (colstore.GroupedResult, *obs.QueryTrace) {
	start := time.Now()
	res, tr := s.executeGroupedTrace(q)
	s.workload.Record(q, time.Since(start), res.TotalCount(), res.PointsScanned, res.BytesTouched)
	return res, tr
}

// executeGroupedTrace is ExecuteGroupedTrace without workload-statistics
// recording, mirroring executeTrace.
func (s *Store) executeGroupedTrace(q query.Query) (colstore.GroupedResult, *obs.QueryTrace) {
	tr := &obs.QueryTrace{Query: q.String()}
	total := time.Now()
	res := s.readStableGrouped(func(top *topology, scanned *int) colstore.GroupedResult {
		// A seqlock retry discards the attempt; start the trace over.
		tr.Stages = tr.Stages[:0]
		tr.Shards = tr.Shards[:0]
		tr.Regions = 0

		start := time.Now()
		ids := top.parts.Shards(q, make([]int, 0, len(s.shards)))
		*scanned = len(ids)
		tr.AddStage("route", time.Since(start),
			fmt.Sprintf("%d of %d shards survive pruning (gen %d)", len(ids), len(s.shards), top.gen))

		start = time.Now()
		partials := make([]colstore.GroupedResult, 0, len(ids))
		var regime colstore.GroupRegime
		for _, id := range ids {
			shStart := time.Now()
			sub, shTr := s.shards[id].ExecuteGroupedTrace(q)
			partials = append(partials, sub)
			regime = max(regime, sub.Regime)
			tr.Shards = append(tr.Shards, obs.ShardSpan{
				Shard:    id,
				Duration: time.Since(shStart),
				Rows:     sub.PointsScanned,
				Bytes:    sub.BytesTouched,
				Regions:  shTr.Regions,
			})
			tr.Regions += shTr.Regions
		}
		tr.AddStage("scan+group", time.Since(start), "regime "+regime.String())

		start = time.Now()
		var res colstore.GroupedResult
		for _, p := range partials {
			res.Merge(p)
		}
		tr.AddStage("merge", time.Since(start),
			fmt.Sprintf("%d grouped partials, %d groups", len(partials), len(res.Groups)))
		return res
	})
	tr.Total = time.Since(total)
	tr.Rows = res.PointsScanned
	tr.Bytes = res.BytesTouched
	return res, tr
}
