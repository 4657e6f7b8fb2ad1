package tsunami

import (
	"net/http"

	"repro/internal/obs"
)

// This file exposes the observability layer (internal/obs): a
// dependency-free, allocation-free metrics registry every serving
// component records into, plus the HTTP surface that serves it.
//
// One registry is typically shared across the whole stack —
//
//	m := tsunami.NewMetrics()
//	ls := tsunami.NewLiveStore(idx, work, tsunami.LiveOptions{Metrics: m})
//	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{Metrics: m})
//	go http.ListenAndServe("127.0.0.1:9100", tsunami.MetricsHandler(m))
//
// — so a single endpoint sees executor queue depth and wait, per-query
// latency histograms (p50/p95/p99/p999), rows and bytes scanned (live
// Mrows/s and GB/s), ingest and merge timings, and shard routing
// telemetry. A nil registry anywhere disables instrumentation with zero
// hot-path cost.

// Metrics is a named registry of lock-free counters, gauges, and
// log-bucketed latency histograms. Recording is allocation-free and
// striped against cache-line contention; scraping (Snapshot, /metrics)
// never blocks recorders.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of every instrument in a
// registry; snapshots diff (interval rates) and their histograms merge
// across shards.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metrics registry, ready to be passed to
// LiveOptions.Metrics, ShardedOptions.Metrics, or ExecutorOptions.Metrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsHandler serves m over HTTP: Prometheus text exposition at
// /metrics, a JSON quantile summary at /statsz, and net/http/pprof under
// /debug/pprof/.
func MetricsHandler(m *Metrics) http.Handler { return obs.Handler(m) }

// QueryTrace is one query's explain-analyze record: stage timings
// (plan/route/scan/merge), per-shard breakdowns for scatter-gather
// queries, a span per routed index region (the query's EXPLAIN), and the
// scan volume behind the answer. Filled by ExecuteWith on TsunamiIndex,
// LiveStore, and ShardedStore when Exec.Trace points at one; rendered by
// its String method (the tsunami-cli `trace` command) and its region
// spans by Explain (`explain`).
type QueryTrace = obs.QueryTrace

// TraceStage is one named, timed phase of a QueryTrace.
type TraceStage = obs.TraceStage

// ShardSpan is one shard's contribution to a scatter-gather QueryTrace.
type ShardSpan = obs.ShardSpan

// RegionSpan is one index region's share of a QueryTrace: its rows, grid
// cells, planned ranges, and the rows it scanned and matched.
type RegionSpan = obs.RegionSpan
