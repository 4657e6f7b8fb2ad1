package obs

// Canonical metric names. Every layer records the query path under the
// same four unlabeled names, so a sharded store's per-shard live stores
// all feed one series — one shared histogram instance, or one counter
// summed over every store's registered count (Registry.CounterFunc) — and
// cross-shard aggregation happens by construction. Layer-specific
// signals get a layer prefix: tsunami_exec_* (Executor), tsunami_live_*
// (LiveStore ingest/maintenance), tsunami_sharded_* (router/rebalance).
// Only per-shard gauges carry a {shard="i"} label — shard-labeled
// counters or histograms would defeat the shared-instance aggregation
// above. A label that is the same in every shard (the grouped regime) is
// one more shared name, and aggregates like the rest.
const (
	// Shared query path (recorded by whichever layer answers the query).
	MQueries      = "tsunami_queries_total"
	MQueryLatency = "tsunami_query_latency_seconds"
	MScanRows     = "tsunami_scan_rows_total"
	MScanBytes    = "tsunami_scan_bytes_total"
	// MGroupedRegime counts executed grouped queries, labeled
	// {regime="bytecode"|"dense"|"hash"} by the accumulation path chosen.
	MGroupedRegime = "tsunami_grouped_regime_total"

	// Executor.
	MExecQueueWait  = "tsunami_exec_queue_wait_seconds"
	MExecQueueDepth = "tsunami_exec_queue_depth"
	MExecLatency    = "tsunami_exec_latency_seconds"
	MExecWaveSize   = "tsunami_exec_wave_size"
	MExecTasks      = "tsunami_exec_tasks_total"

	// LiveStore ingest and maintenance.
	MLiveIngestLatency = "tsunami_live_ingest_latency_seconds"
	MLiveIngestRows    = "tsunami_live_ingest_rows_total"
	MLiveBufferedRows  = "tsunami_live_buffered_rows"
	MLiveEpoch         = "tsunami_live_epoch"
	MLiveMerges        = "tsunami_live_merges_total"
	MLiveMergeSeconds  = "tsunami_live_merge_seconds"
	MLiveReoptimizes   = "tsunami_live_reoptimizes_total"
	MLiveReoptSeconds  = "tsunami_live_reoptimize_seconds"
	MLiveSnapshots     = "tsunami_live_snapshots_total"
	MLiveSnapSeconds   = "tsunami_live_snapshot_seconds"
	MLiveDetectorFires = "tsunami_live_detector_fires_total"

	// Result cache (epoch-keyed; each LiveStore, a ShardedStore's shards
	// included, registers its own cache's counts).
	MCacheHits      = "tsunami_cache_hits_total"
	MCacheMisses    = "tsunami_cache_misses_total"
	MCacheEvictions = "tsunami_cache_evictions_total"
	MCacheEntries   = "tsunami_cache_entries"

	// Executor admission control.
	MAdmissionAdmitted = "tsunami_admission_admitted_total"
	MAdmissionShed     = "tsunami_admission_shed_total"
	MAdmissionBudget   = "tsunami_admission_budget_rejected_total"
	MAdmissionInFlight = "tsunami_admission_in_flight"

	// ShardedStore router and rebalancer.
	MShardedQueryLatency   = "tsunami_sharded_query_latency_seconds"
	MShardedFanout         = "tsunami_sharded_fanout_shards"
	MShardedShardsScanned  = "tsunami_sharded_shards_scanned_total"
	MShardedShardsPruned   = "tsunami_sharded_shards_pruned_total"
	MShardedSkew           = "tsunami_sharded_skew"
	MShardedRebalances     = "tsunami_sharded_rebalances_total"
	MShardedRowsMigrated   = "tsunami_sharded_rows_migrated_total"
	MShardedPrepareSeconds = "tsunami_sharded_rebalance_prepare_seconds"
	MShardedCommitSeconds  = "tsunami_sharded_rebalance_commit_seconds"
	MShardedPersistSeconds = "tsunami_sharded_rebalance_persist_seconds"
)
