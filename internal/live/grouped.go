package live

import (
	"fmt"
	"time"

	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/query"
)

// ExecuteGrouped answers one grouped aggregate (GROUP BY) against the
// current epoch with the same serving discipline as Execute: lock-free
// epoch load, result-cache probe, metrics/workload recording, and the
// shift-detector feed. Buffered-but-unmerged rows are folded in by the
// core layer's delta scan, so grouped results see exactly the rows a
// flat aggregate at the same epoch would.
func (s *Store) ExecuteGrouped(q query.Query) colstore.GroupedResult {
	return s.ExecuteGroupedParallelOn(q, 1, nil)
}

// ExecuteGroupedParallelOn is ExecuteGrouped with the index's intra-query
// parallelism (see core.Tsunami.ExecuteGroupedParallelOn), so grouped
// queries can sit behind an Executor with IntraQuery enabled.
func (s *Store) ExecuteGroupedParallelOn(q query.Query, workers int, submit func(task func())) colstore.GroupedResult {
	v := s.cur.Load()
	s.queries.Add(1)
	if res, ok := s.cacheGetGrouped(v, q); ok {
		return res
	}
	m, w := s.metrics, s.cfg.Workload
	if m == nil && w == nil {
		res := v.idx.ExecuteGroupedParallelOn(q, workers, submit)
		s.cachePutGrouped(v, q, res)
		s.observeAsync(q, res.TotalCount(), v)
		return res
	}
	start := time.Now()
	res := v.idx.ExecuteGroupedParallelOn(q, workers, submit)
	d := time.Since(start)
	if m != nil {
		m.qm.Observe(d, res.PointsScanned, res.BytesTouched)
		m.regimes[res.Regime].Inc()
	}
	w.Record(q, d, res.TotalCount(), res.PointsScanned, res.BytesTouched)
	s.cachePutGrouped(v, q, res)
	s.observeAsync(q, res.TotalCount(), v)
	return res
}

// cacheGetGrouped serves a grouped query from the result cache at v's
// epoch, with the same accounting contract as cacheGet: a hit is
// recorded into metrics and workload stats at zero rows/bytes scanned
// and still feeds the shift detector.
func (s *Store) cacheGetGrouped(v *version, q query.Query) (colstore.GroupedResult, bool) {
	if s.cache == nil {
		return colstore.GroupedResult{}, false
	}
	start := time.Now()
	res, ok := s.cache.GetGrouped(v.epoch, nil, q)
	if !ok {
		s.cacheMisses.Add(1)
		return colstore.GroupedResult{}, false
	}
	s.cacheHits.Add(1)
	if m, w := s.metrics, s.cfg.Workload; m != nil || w != nil {
		d := time.Since(start)
		if m != nil {
			m.qm.Observe(d, 0, 0)
		}
		w.Record(q, d, res.TotalCount(), 0, 0)
	}
	s.observeAsync(q, res.TotalCount(), v)
	return res, true
}

// cachePutGrouped stores a freshly computed grouped result under v's
// epoch; same correctness argument as cachePut (v.idx is immutable, so
// the entry can be unreachable but never wrong).
func (s *Store) cachePutGrouped(v *version, q query.Query, res colstore.GroupedResult) {
	if s.cache == nil {
		return
	}
	if s.cache.PutGrouped(v.epoch, nil, q, res) {
		s.cacheEvictions.Add(1)
	}
}

// ExecuteGroupedTrace answers q exactly like ExecuteGrouped while
// recording an explain-analyze trace of the underlying grouped
// execution, prefixed with the epoch the query was served against (the
// same framing as ExecuteTrace). Query accounting is identical to
// ExecuteGrouped, so traced queries do not skew the aggregates they are
// debugging.
func (s *Store) ExecuteGroupedTrace(q query.Query) (colstore.GroupedResult, *obs.QueryTrace) {
	v := s.cur.Load()
	s.queries.Add(1)
	start := time.Now()
	res, tr := v.idx.ExecuteGroupedTrace(q)
	d := time.Since(start)
	if m := s.metrics; m != nil {
		m.qm.Observe(d, res.PointsScanned, res.BytesTouched)
		m.regimes[res.Regime].Inc()
	}
	s.cfg.Workload.Record(q, d, res.TotalCount(), res.PointsScanned, res.BytesTouched)
	s.observeAsync(q, res.TotalCount(), v)
	tr.Stages = append([]obs.TraceStage{{
		Name:   "epoch",
		Detail: fmt.Sprintf("serving epoch %d (%d buffered rows)", v.epoch, v.idx.NumBuffered()),
	}}, tr.Stages...)
	return res, tr
}
