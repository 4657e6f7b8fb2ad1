package main

import (
	tsunami "repro"
	"repro/internal/datasets"
	"repro/internal/workload"
)

// The layout is the same in every run: dataset, training workload and
// optimizer are seeded by these constants, never by -seed. -seed draws only
// the held-out test queries, the zipf ranks and the inserted rows.
const (
	layoutSeed = 1 // dataset generator and optimizer seed
	trainSeed  = 7 // training workload
	trainPer   = 100
)

// options is the optimizer budget every index in the benchmark is built with
// (Tsunami and Flood alike). It is smaller than the library default so that
// three timed set-ups fit in a run; the layouts it finds still beat Flood on
// taxi_fig7. Nothing else departs from the library's defaults.
func (sp spec) options() tsunami.Options {
	o := tsunami.Options{OptimizerIters: 2, MaxOptQueries: 20, SampleSize: 512, Seed: layoutSeed}
	if sp.small {
		o.MaxOptQueries, o.SampleSize = 8, 128
	}
	return o
}

// stackKind is what a workload's queries are served from.
type stackKind int

const (
	stackBare    stackKind = iota // TsunamiIndex.Execute
	stackServed                   // Executor.Serve over a caching LiveStore
	stackSharded                  // ShardedStore.Execute
)

// spec is one named workload.
type spec struct {
	name    string
	dataset string // "taxi" or "tpch"
	rows    int
	train   func() []workload.TypeSpec
	test    func() []workload.TypeSpec
	// testPer distinct held-out queries are drawn per test type.
	testPer int
	// groupedEvery makes every k-th distinct flat query a GROUP BY variant.
	groupedEvery int
	groupDims    []int
	sumDim       int
	kind         stackKind
	clients      int
	// zipfFlat/zipfGrouped > 0 make a pass that many zipf(s=1.1) draws from
	// the distinct queries instead of one sweep of them.
	zipfFlat, zipfGrouped int
	// writerRowsPerSec > 0 runs an open-loop paced writer beside the reader.
	writerRowsPerSec int
	// small is the tests' one switch: see shrunk.
	small bool
}

// shrunk is the workload at the size the tests run it: 20 000 rows, a
// handful of queries, one set-up and one short burst, so that a run takes a
// fraction of a second. The code paths are the full-size ones.
func (sp spec) shrunk() spec {
	sp.small = true
	sp.rows, sp.testPer = 20_000, 60
	if sp.zipfFlat > 0 {
		sp.zipfFlat, sp.zipfGrouped = 1024, 256
	}
	return sp
}

// pick returns full, or small at the tests' size.
func (sp spec) pick(full, small int) int {
	if sp.small {
		return small
	}
	return full
}

// repeats is how many timed set-ups, and how many writer-only bursts, a run
// takes its median over. A traced run does each once: setup_s and
// ingest_rows_per_s are end-to-end metrics and it does not report them.
func (sp spec) repeats(trace bool) int {
	if trace {
		return 1
	}
	return sp.pick(3, 1)
}

// burstRows is the size of one writer-only burst.
func (sp spec) burstRows() int { return sp.pick(65536, 4*batchRows) }

// recordIters is the length of the side-car recording loops.
func (sp spec) recordIters() int { return sp.pick(1_000_000, 10_000) }

const (
	cacheEntries   = 2048
	zipfS          = 1.1
	zipfV          = 16
	mergeThreshold = 4096
	batchRows      = 256
	floodPerPass   = 1000 // queries in one Flood pass
)

var specs = []spec{
	{
		name: "taxi_fig7", dataset: "taxi", rows: 500_000,
		train: workload.TaxiTypes, test: workload.TaxiTypes, testPer: 500,
		groupedEvery: 3, sumDim: datasets.TaxiFare,
		groupDims: []int{datasets.TaxiPassengers, datasets.TaxiPickupZone, datasets.TaxiDropoffZone},
		kind:      stackBare, clients: 1,
	},
	{
		name: "tpch_adhoc_scan", dataset: "tpch", rows: 500_000,
		train: workload.TPCHTypes, test: adhocTypes, testPer: 200,
		groupedEvery: 1, sumDim: datasets.TPCHExtendedPrice,
		groupDims: []int{datasets.TPCHDiscount, datasets.TPCHTax, datasets.TPCHShipMode},
		kind:      stackBare, clients: 1,
	},
	{
		name: "taxi_serve_zipf", dataset: "taxi", rows: 500_000,
		train: workload.TaxiTypes, test: workload.TaxiTypes, testPer: 1366,
		groupedEvery: 16, sumDim: datasets.TaxiFare,
		groupDims: []int{datasets.TaxiPassengers, datasets.TaxiPickupZone, datasets.TaxiDropoffZone},
		kind:      stackServed, clients: 2, zipfFlat: 16384, zipfGrouped: 2048,
	},
	{
		name: "taxi_live_mixed", dataset: "taxi", rows: 500_000,
		train: workload.TaxiTypes, test: workload.TaxiTypes, testPer: 500,
		groupedEvery: 3, sumDim: datasets.TaxiFare,
		groupDims: []int{datasets.TaxiPassengers, datasets.TaxiPickupZone, datasets.TaxiDropoffZone},
		kind:      stackSharded, clients: 1, writerRowsPerSec: 5_000,
	},
}

// adhocTypes are five query types the TPC-H index was not trained for, in
// the manner of workload.TPCHShiftedTypes (the first is its
// "shift-quantity-heavy"), all on quantity and tax: the two attributes the
// learned grids leave unpartitioned, so the index can prune little and a
// query is a few long scans over a third to a half of the table. The shifted
// types that filter a date, the price, the discount or the ship mode cross
// thousands of 40-row grid cells instead, and planning those is a third of
// the query whatever the table size (the cell budget grows with the rows).
func adhocTypes() []workload.TypeSpec {
	q, x := datasets.TPCHQuantity, datasets.TPCHTax
	dim := func(d int, sel float64, sk workload.Skew) workload.DimSpec {
		return workload.DimSpec{Dim: d, Sel: sel, Jitter: 0.2, Skew: sk}
	}
	return []workload.TypeSpec{
		{Name: "adhoc-quantity-heavy", Dims: []workload.DimSpec{dim(q, 0.05, workload.Recent), dim(x, 0.35, workload.Uniform)}},
		{Name: "adhoc-tax-extremes", Dims: []workload.DimSpec{dim(x, 0.25, workload.Extremes), dim(q, 0.5, workload.Uniform)}},
		{Name: "adhoc-small-orders", Dims: []workload.DimSpec{dim(q, 0.25, workload.Low), dim(x, 0.35, workload.Uniform)}},
		{Name: "adhoc-tax-band", Dims: []workload.DimSpec{dim(x, 0.3, workload.Uniform)}},
		{Name: "adhoc-bulk-at-one-rate", Dims: []workload.DimSpec{dim(q, 0.25, workload.Recent), {Dim: x, Equality: true}}},
	}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDecl names a metric and its unit; BENCHMARK.json declares the same
// lists (bench_test.go holds the two together).
type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"queries_per_ref", "count"},
	{"query_p50_vs_ref_x", "ratio"},
	{"query_p99_vs_ref_x", "ratio"},
	{"grouped_p50_vs_ref_x", "ratio"},
	{"grouped_p99_vs_ref_x", "ratio"},
	{"speedup_vs_flood_x", "ratio"},
	{"scan_bw_frac", "ratio"},
	{"index_bytes", "bytes"},
	{"heap_mib", "MiB"},
	{"ingest_rows_per_ref", "rows"},
}

var perLayer = []metricDecl{
	// The wall-clock figures a user sees. They carry no bound because on this
	// host they do not repeat between two sets of runs (see README.md); the
	// end-to-end metrics above are the same figures over the naive reference.
	{"queries_per_s", "1/s"},
	{"query_us_p50", "us"},
	{"query_us_p99", "us"},
	{"grouped_us_p50", "us"},
	{"grouped_us_p99", "us"},
	{"ingest_rows_per_s", "rows/s"},
	{"insert_us_p50", "us"},
	{"colstore.scan_self_us", "us"},
	{"colstore.scan_gbps", "GB/s"},
	{"colstore.stream_read_gbps", "GB/s"},
	{"colstore.grouped_scan_self_us", "us"},
	{"colstore.points_scanned_per_query", "count"},
	{"colstore.bytes_touched_per_query", "bytes"},
	{"colstore.scanned_per_match", "ratio"},
	{"colstore.fullscan_us", "us"},
	{"gridtree.route_us", "us"},
	{"gridtree.regions_visited_per_query", "count"},
	{"gridtree.nodes", "count"},
	{"gridtree.leaf_regions", "count"},
	{"auggrid.plan_self_us", "us"},
	{"auggrid.total_cells", "count"},
	{"auggrid.avg_fms_per_region", "count"},
	{"auggrid.avg_ccdfs_per_region", "count"},
	{"auggrid.optimize_s", "s"},
	{"auggrid.sort_s", "s"},
	{"core.execute_us", "us"},
	{"core.plan_share", "ratio"},
	{"core.allocs_per_query", "count"},
	{"core.build_s", "s"},
	{"flood.execute_us", "us"},
	{"flood.points_scanned_per_query", "count"},
	{"flood.index_bytes", "bytes"},
	{"flood.build_s", "s"},
	{"qcache.hit_rate", "ratio"},
	{"qcache.evictions", "count"},
	{"qcache.entries", "count"},
	{"qcache.hit_us", "us"},
	{"qcache.miss_us", "us"},
	{"executor.serve_overhead_us", "us"},
	{"executor.admission_estimate_us", "us"},
	{"executor.shed", "count"},
	{"executor.over_budget", "count"},
	{"obs.record_ns", "ns"},
	{"wstats.record_ns", "ns"},
	{"live.read_overhead_us", "us"},
	{"live.insert_us_p99", "us"},
	{"live.merges", "count"},
	{"live.merge_s_total", "s"},
	{"live.buffered_rows_max", "count"},
	{"live.read_stall_us_max", "us"},
	{"live.writer_late_ms_max", "ms"},
	{"live.flush_s", "s"},
	{"sharded.route_overhead_us", "us"},
	{"sharded.shards_scanned_per_query", "count"},
	{"sharded.shards_pruned_frac", "ratio"},
	{"ladder.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}
