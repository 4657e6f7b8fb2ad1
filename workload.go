package tsunami

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/wstats"
)

// This file exposes the workload-statistics layer (internal/wstats):
// canonical query fingerprints, a heavy-hitter sketch of the hottest
// query shapes with per-shape latency histograms, online per-dimension
// selectivity and filter-bound statistics, latency SLO tracking with
// error-budget burn rates, and an automatic slow-query log that captures
// explain-analyze exemplar traces for queries beyond an adaptive
// p99-based threshold.
//
// One collector is typically attached to the serving layer —
//
//	wl := tsunami.NewWorkloadStats(tsunami.WorkloadOptions{})
//	ls := tsunami.NewLiveStore(idx, work, tsunami.LiveOptions{Workload: wl})
//	go http.ListenAndServe("127.0.0.1:9100",
//		tsunami.MetricsHandlerWith(m, wl))
//
// — and /workloadz then answers "what is this store actually serving":
// the top query shapes by count with their own p50/p99, which dimensions
// queries filter on and how selective those filters are, whether the
// latency objectives are holding, and concrete traces of the slowest
// recent queries. A nil collector disables everything with zero hot-path
// cost, the same contract as Metrics.

// WorkloadStats collects per-query workload statistics. The hot path
// (Record) is a few atomics; a sampled query (1 in 8) also
// folds into the sketch and histograms there and then, under a try-lock —
// contention drops the sample and counts it, so Record never blocks the
// query path. The collector is passive: it owns no goroutine.
type WorkloadStats = wstats.Collector

// WorkloadOptions configures a WorkloadStats collector: its latency
// objectives. The zero value tracks 1ms@99% and 10ms@99.9%.
type WorkloadOptions = wstats.Config

// WorkloadObjective is one latency SLO: the fraction of queries
// (Target) that must finish within Latency.
type WorkloadObjective = wstats.Objective

// WorkloadSnapshot is a point-in-time copy of a collector's statistics —
// the JSON document /workloadz serves.
type WorkloadSnapshot = wstats.Snapshot

// NewWorkloadStats returns a collector ready to be passed to
// LiveOptions.Workload or ShardedOptions.Workload, which bind it to the
// table they serve (dimension names and domains, live row count, and a
// trace function for slow-query exemplars). It holds nothing to release.
func NewWorkloadStats(o WorkloadOptions) *WorkloadStats { return wstats.New(o) }

// WorkloadHandler serves w's statistics as indented JSON (the /workloadz
// document; see WorkloadSnapshot).
func WorkloadHandler(w *WorkloadStats) http.Handler { return wstats.HTTPHandler(w) }

// MetricsHandlerWith is MetricsHandler plus the workload-statistics
// surface: /workloadz serves w alongside /metrics, /statsz, and
// /debug/pprof/. A nil w serves an empty document.
func MetricsHandlerWith(m *Metrics, w *WorkloadStats) http.Handler {
	return obs.Handler(m, obs.Route{Path: "/workloadz", Handler: wstats.HTTPHandler(w)})
}
