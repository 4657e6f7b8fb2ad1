package main

import (
	"runtime"
	"time"

	tsunami "repro"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/wstats"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one query share its id.
type span struct {
	Query   int    `json:"query"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns,omitempty"`
}

const (
	maxLadderQueries = 3000
	maxSpanQueries   = 1000 // span trees written to the span file
)

// keepSpans replaces the kept root spans with the flat queries of the pass
// just traced. Call before the pass's latencies are sorted.
func (r *runner) keepSpans(p *pass) {
	r.passSpans = r.passSpans[:0]
	for k := 0; k < len(p.flatLat) && k < maxSpanQueries; k++ {
		r.passSpans = append(r.passSpans, span{Query: k, Name: "pass.flat", StartNs: p.flatStart[k], DurNs: p.flatLat[k]})
	}
}

// rung is one public depth of the stack: fn answers query i of the ladder
// list at that depth. layer is the module whose self time is this rung minus
// the rung below.
type rung struct {
	layer string
	fn    func(i int)
}

// ladderResult is the per-layer self times of one ladder, in µs per query.
type ladderResult struct {
	self    map[string]float64
	rungUs  []float64 // mean of each rung's per-query median
	topUs   float64   // mean wall time per query of the top rung's plain sweeps
	selfSum float64
}

// climb times every query at every rung, three sweeps of the whole list per
// rung so that each sample sees the caches a plain pass would, takes the
// per-query median of the three, and differences adjacent rungs.
func (r *runner) climb(rungs []rung, n int, spanPrefix string) ladderResult {
	const reps = 3
	began := r.began
	t := make([][reps][]int64, len(rungs))
	start := make([][]int64, len(rungs))
	var topWall time.Duration
	for k := range rungs {
		for rep := 0; rep < reps; rep++ {
			t[k][rep] = make([]int64, n)
		}
		start[k] = make([]int64, n)
	}
	for rep := 0; rep < reps; rep++ {
		for k, rg := range rungs {
			s0 := time.Now()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				rg.fn(i)
				t[k][rep][i] = int64(time.Since(t0))
				if rep == 0 {
					start[k][i] = int64(t0.Sub(began))
				}
			}
			if k == 0 {
				topWall += time.Since(s0)
			}
		}
	}
	out := ladderResult{self: map[string]float64{}, rungUs: make([]float64, len(rungs))}
	out.topUs = topWall.Seconds() * 1e6 / float64(reps*n)
	for i := 0; i < n; i++ {
		var below int64
		for k := len(rungs) - 1; k >= 0; k-- {
			a, b, c := t[k][0][i], t[k][1][i], t[k][2][i]
			med := max(min(a, b), min(max(a, b), c))
			self := max(med-below, 0)
			below = med
			out.rungUs[k] += float64(med) / 1e3
			out.self[rungs[k].layer] += float64(self) / 1e3
			if i < maxSpanQueries {
				parent := ""
				if k > 0 {
					parent = spanPrefix + rungs[k-1].layer
				}
				r.res.spans = append(r.res.spans, span{Query: i, Name: spanPrefix + rungs[k].layer, Parent: parent, StartNs: start[k][i], DurNs: med, SelfNs: self})
			}
		}
	}
	for k := range out.rungUs {
		out.rungUs[k] /= float64(n)
	}
	for name, v := range out.self {
		out.self[name] = v / float64(n)
		out.selfSum += out.self[name]
	}
	return out
}

// countRegions walks the Grid Trees before any ingest re-clusters them: the
// regions a pass's flat queries visit, summed over the shards each routes to,
// and the indexes as built.
func (r *runner) countRegions() {
	st := r.st
	r.built = st.cores()
	for _, i := range r.in.flatSeq {
		q := r.in.flat[i]
		ids := []int{0}
		if st.sharded != nil {
			ids = st.sharded.Partitioner().Shards(q, nil)
		}
		for _, s := range ids {
			r.regionsVisited += float64(r.built[s].RegionsVisited(q))
		}
	}
}

// reportLayers reports the per-layer metrics the ladders did not: the
// counters of the window and the structure of what set-up built. A layer the
// workload's stack does not contain reports 0.
func (r *runner) reportLayers(v *verification, m *measured) {
	in, st, env, put := r.in, r.st, r.res.env, r.res.put

	// The wall-clock figures of the window, medians over its passes.
	for _, name := range []string{"queries_per_s", "query_us_p50", "query_us_p99", "grouped_us_p50", "grouped_us_p99"} {
		put(name, median(env.Passes[name]))
	}
	put("ingest_rows_per_s", mean(env.Passes["ingest_rows_per_s"]))
	put("insert_us_p50", env.Notes["insert_us_p50"])
	put("flood.execute_us", median(column(m.passes, func(p passStats) float64 { return p.floodUs })))
	put("colstore.stream_read_gbps", r.ref.bytes()/(median(env.Passes["ref_us"])*1e3))
	var qpsOff, qpsOn []float64
	var stallUs float64
	for _, p := range m.passes {
		stallUs = max(stallUs, p.stallUs)
		if p.traced {
			qpsOn = append(qpsOn, p.qps)
		} else {
			qpsOff = append(qpsOff, p.qps)
		}
	}
	if len(qpsOn) > 0 {
		put("trace.overhead_frac", 1-median(qpsOn)/median(qpsOff))
	}

	// Exact counts, from the verified answers weighted by what a pass draws.
	var points, bytes, matched, floodPoints float64
	for _, i := range in.flatSeq {
		a := v.want.flat[i]
		points, bytes, matched = points+float64(a.points), bytes+float64(a.bytes), matched+float64(a.count)
		floodPoints += float64(v.floodPoints[i])
	}
	nSeq := float64(len(in.flatSeq))
	put("colstore.points_scanned_per_query", points/nSeq)
	put("colstore.bytes_touched_per_query", bytes/nSeq)
	put("colstore.scanned_per_match", points/max(matched, 1))
	put("flood.points_scanned_per_query", floodPoints/nSeq)
	put("flood.index_bytes", float64(r.flood.SizeBytes()))
	put("flood.build_s", env.FloodBuildS)

	// Structure of what set-up built, summed over shards.
	var nodes, leaves, cells, fms, ccdfs, optS, sortS float64
	for _, c := range r.built {
		s, b := c.IndexStats(), c.BuildStats()
		nodes, leaves, cells = nodes+float64(s.NumGridTreeNodes), leaves+float64(s.NumLeafRegions), cells+float64(s.TotalGridCells)
		fms, ccdfs = fms+s.AvgFMsPerRegion/float64(len(r.built)), ccdfs+s.AvgCCDFsPerRegion/float64(len(r.built))
		optS, sortS = optS+b.OptimizeSeconds, sortS+b.SortSeconds
	}
	put("gridtree.nodes", nodes)
	put("gridtree.leaf_regions", leaves)
	put("gridtree.regions_visited_per_query", r.regionsVisited/nSeq)
	put("auggrid.total_cells", cells)
	put("auggrid.avg_fms_per_region", fms)
	put("auggrid.avg_ccdfs_per_region", ccdfs)
	put("auggrid.optimize_s", optS)
	put("auggrid.sort_s", sortS)
	put("core.build_s", env.SetupS[0])

	if st.sharded != nil {
		a, b := m.shardedAfter, m.shardedBefore
		scanned, pruned := float64(a.ShardsScanned-b.ShardsScanned), float64(a.ShardsPruned-b.ShardsPruned)
		put("sharded.shards_scanned_per_query", scanned/max(float64(a.Queries-b.Queries), 1))
		put("sharded.shards_pruned_frac", pruned/max(scanned+pruned, 1))
	}
	if st.kind == stackServed {
		a, b := m.cacheAfter, m.cacheBefore
		hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
		put("qcache.hit_rate", hits/max(hits+misses, 1))
		put("qcache.evictions", float64(a.Evictions-b.Evictions))
		put("qcache.entries", float64(a.Entries))
	}
	put("executor.shed", float64(st.shed.Load()))
	put("executor.over_budget", float64(st.overBudget.Load()))
	if pw := m.pw; pw != nil {
		put("live.flush_s", m.flushS)
		put("live.insert_us_p99", percentileUs(pw.latNs, 0.99))
		put("live.buffered_rows_max", float64(pw.bufferedMax))
		put("live.writer_late_ms_max", pw.lateMaxMs)
		put("live.read_stall_us_max", stallUs)
		put("live.merges", float64(m.merges))
		put("live.merge_s_total", m.mergeS)
	}

	r.res.spans = append(r.passSpans, r.res.spans...)
	for _, d := range perLayer {
		if _, ok := r.res.Metrics[d.name]; !ok {
			put(d.name, 0) // the layer is not in this workload's stack
		}
	}
}

// climbLadders times the quiet stack, result cache off, at every public
// depth and reports the layers' self times, then the figures taken by
// driving one layer directly. It runs after the window and before the
// writer-only bursts, on the indexes the window's queries were served from.
func (r *runner) climbLadders() {
	cfg, sp, in, st, env, put := r.cfg, r.cfg.sp, r.in, r.st, r.res.env, r.res.put

	// cores are the indexes the window was served from (after the paced
	// stream's merges on taxi_live_mixed); a query climbs the ones of the
	// shards it routes to.
	cores := st.cores()
	routes := func(q tsunami.Query) []int {
		if st.sharded != nil {
			return st.sharded.Partitioner().Shards(q, nil)
		}
		return []int{0}
	}
	target := st
	if st.kind == stackServed {
		target = st.twin(in)
		defer func() { _ = target.close() }() // read-only twin; nothing to lose
		cores = target.cores()
	}
	n := min(len(in.flat), maxLadderQueries)
	route := make([][]int, n)
	for i := range route {
		route[i] = routes(in.flat[i])
	}
	var ladderBytes uint64
	var rungs []rung
	switch st.kind {
	case stackServed:
		rungs = append(rungs,
			rung{"executor.serve_overhead_us", func(i int) { _, _ = target.exec.Serve(in.flat[i], tsunami.PriorityNormal) }},
			rung{"live.read_overhead_us", func(i int) { target.live.Execute(in.flat[i]) }})
	case stackSharded:
		rungs = append(rungs,
			rung{"sharded.route_overhead_us", func(i int) { st.sharded.Execute(in.flat[i]) }},
			rung{"live.read_overhead_us", func(i int) {
				for _, s := range route[i] {
					st.sharded.Shard(s).Execute(in.flat[i])
				}
			}})
	}
	rungs = append(rungs,
		rung{"colstore.scan_self_us", func(i int) {
			for _, s := range route[i] {
				ladderBytes += cores[s].Execute(in.flat[i]).BytesTouched
			}
		}},
		rung{"auggrid.plan_self_us", func(i int) {
			for _, s := range route[i] {
				cores[s].EstimateCost(in.flat[i])
			}
		}},
		rung{"gridtree.route_us", func(i int) {
			for _, s := range route[i] {
				cores[s].RegionsVisited(in.flat[i])
			}
		}})
	lad := r.climb(rungs, n, "")
	for name, us := range lad.self {
		put(name, us)
	}
	coreRung := len(rungs) - 3
	put("core.execute_us", lad.rungUs[coreRung])
	put("core.plan_share", lad.rungUs[coreRung+1]/lad.rungUs[coreRung])
	put("colstore.scan_gbps", float64(ladderBytes)/3/float64(n)/(lad.self["colstore.scan_self_us"]*1e3))
	put("ladder.residual_frac", (lad.topUs-lad.selfSum)/lad.topUs)
	env.Notes["ladder_top_us"], env.Notes["ladder_self_sum_us"], env.Notes["ladder_queries"] = lad.topUs, lad.selfSum, float64(n)

	// The grouped scan's share, by the same differencing.
	ng := min(len(in.grouped), maxLadderQueries/3)
	groute := make([][]int, ng)
	for i := range groute {
		groute[i] = routes(in.grouped[i])
	}
	glad := r.climb([]rung{
		{"colstore.grouped_scan_self_us", func(i int) {
			for _, s := range groute[i] {
				cores[s].ExecuteGrouped(in.grouped[i])
			}
		}},
		{"grouped.plan", func(i int) {
			for _, s := range groute[i] {
				cores[s].EstimateCost(in.grouped[i])
			}
		}},
	}, ng, "grouped.")
	put("colstore.grouped_scan_self_us", glad.self["colstore.grouped_scan_self_us"])

	// Allocations of one plain sweep at the core rung.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		rungs[coreRung].fn(i)
	}
	runtime.ReadMemStats(&m1)
	put("core.allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/float64(n))

	// A full-table scan of one test query, the kernel with no index at all.
	table := in.data.Store
	var fullNs []int64
	for k := 0; k < 15; k++ {
		var res tsunami.Result
		t0 := time.Now()
		table.ScanRange(in.flat[0], 0, table.NumRows(), false, &res)
		fullNs = append(fullNs, int64(time.Since(t0)))
	}
	put("colstore.fullscan_us", percentileUs(fullNs, 0.50))

	if st.kind == stackServed {
		// Serve of a hot query and of never-seen queries, on the caching stack.
		hot := in.flat[in.flatSeq[0]]
		_, _ = st.flat(hot)
		var hitNs, missNs, estNs []int64
		for k := 0; k < 2000; k++ {
			t0 := time.Now()
			_, _ = st.flat(hot)
			hitNs = append(hitNs, int64(time.Since(t0)))
		}
		for _, q := range workload.Generate(table, sp.test(), 100, 3_000_017+cfg.seed) {
			t0 := time.Now()
			_, _ = st.flat(q)
			missNs = append(missNs, int64(time.Since(t0)))
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			target.live.EstimateCost(in.flat[i])
			estNs = append(estNs, int64(time.Since(t0)))
		}
		put("qcache.hit_us", percentileUs(hitNs, 0.50))
		put("qcache.miss_us", percentileUs(missNs, 0.50))
		put("executor.admission_estimate_us", meanUs(estNs))
	}

	// The two recording side-cars, driven directly.
	records := sp.recordIters()
	qm := obs.NewQueryMetrics(obs.NewRegistry())
	t0 := time.Now()
	for k := 0; k < records; k++ {
		qm.Observe(time.Duration(k), 100, 800)
	}
	put("obs.record_ns", float64(time.Since(t0))/float64(records))
	ws := wstats.New(wstats.Config{})
	t0 = time.Now()
	for k := 0; k < records; k++ {
		ws.Record(in.flat[k%len(in.flat)], time.Duration(k), 10, 100, 800)
	}
	put("wstats.record_ns", float64(time.Since(t0))/float64(records))
	ws.Close()
}
