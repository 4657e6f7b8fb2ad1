package tsunami

import (
	"io"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/qcache"
	"repro/internal/sharded"
)

// This file exposes the serving subsystems:
//
//   - LiveStore (internal/live): an epoch-based read-write layer over a
//     built Tsunami index. Readers resolve the current immutable index
//     through an atomic epoch handle and execute lock-free; writers go
//     through a serialized copy-on-write ingest path; and a background
//     maintenance goroutine merges buffered rows into fresh clustered
//     copies, re-optimizes drifted region grids when the shift detector
//     fires, and takes periodic crash-recovery snapshots — each published
//     with a single atomic swap while old-epoch readers drain.
//
//   - ShardedStore (internal/sharded): N independent LiveStore shards
//     behind a partitioning router. Ingest scales with shard count (each
//     shard has its own copy-on-write writer section), reads scatter to
//     the shards the partitioner cannot prune and gather their partial
//     aggregates, and each shard runs its own maintenance. Save/Recover
//     coordinate a consistent multi-shard snapshot, and an online
//     rebalancer (ShardedOptions.Rebalance / ShardedStore.Rebalance)
//     re-learns the range cuts and migrates rows between shards when
//     skewed ingest unbalances them — without blocking readers, exactly,
//     and crash-consistently.

// LiveStore is a concurrently-writable serving layer over a Tsunami
// index. It implements Index: each read resolves the current epoch, so an
// Executor built over it picks up epoch swaps.
//
// Any number of goroutines may call Execute concurrently with any number
// of goroutines calling Insert/InsertBatch; queries never block on writes
// or on background maintenance.
type LiveStore = live.Store

// LiveOptions configures a LiveStore.
type LiveOptions = live.Config

// LiveEvent describes one completed maintenance operation (merge,
// re-optimization, snapshot, or error); subscribe via LiveOptions.OnEvent.
type LiveEvent = live.Event

// LiveStats is a point-in-time summary of a LiveStore.
type LiveStats = live.Stats

// CacheStats is a point-in-time summary of a LiveStore's result cache
// (LiveOptions.CacheEntries): hit, miss, and eviction totals plus the
// current entry count. The cache is keyed on (epoch, exact canonical
// query) — literal filter bounds included — so every publish invalidates
// exactly and for free; see internal/qcache for why the key is not the
// workload fingerprint. A ShardedStore has no cache of its own: its
// shards cache their partials (ShardedOptions.CacheEntries is split
// among them) and ShardedStats.Cache sums their counters, a query routed
// to k shards counting as k probes.
type CacheStats = qcache.Stats

// Maintenance event kinds reported through LiveOptions.OnEvent.
const (
	LiveEventMerge      = live.EventMerge
	LiveEventReoptimize = live.EventReoptimize
	LiveEventSnapshot   = live.EventSnapshot
	LiveEventError      = live.EventError
)

// NewLiveStore starts serving idx with live writes and background
// maintenance. optimized is the sample workload the index was built for;
// it fingerprints the workload-shift detector (pass nil to serve without
// shift-triggered re-optimization). idx itself is never written: writes
// publish successors derived from it.
//
//	idx := tsunami.New(table, work, tsunami.Options{})
//	ls := tsunami.NewLiveStore(idx, work, tsunami.LiveOptions{MergeThreshold: 10_000})
//	defer ls.Close()
//
//	go func() { ls.Insert(row) }()          // writers
//	res := ls.Execute(q)                    // readers, lock-free
//
//	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{}) // batch serving
//	results := ex.ExecuteBatch(queries)
func NewLiveStore(idx *TsunamiIndex, optimized []Query, o LiveOptions) *LiveStore {
	return live.Open(idx, optimized, o)
}

// RecoverLiveStore reopens a LiveStore from a snapshot written by
// LiveStore.Snapshot, its periodic snapshots, or TsunamiIndex.Save —
// including rows that were buffered but not yet merged at snapshot time.
func RecoverLiveStore(r io.Reader, optimized []Query, o LiveOptions) (*LiveStore, error) {
	return live.Recover(r, optimized, o)
}

// ---------------------------------------------------------------------------
// Sharded serving.

// ShardedStore serves one logical table from N independent LiveStore
// shards: rows are routed to shards by a Partitioner, ingest to different
// shards proceeds with no cross-shard lock (throughput scales with shard
// count), and reads execute only on the shards the router cannot prune,
// merging their partial aggregates (COUNT/SUM add; AVG merges exactly
// because Result carries the sum+count pair).
//
// ShardedStore implements Index and the same Plan/ExecuteWith pipeline as
// a TsunamiIndex, so an Executor serves it like any other index.
type ShardedStore = sharded.Store

// ShardedOptions configures a ShardedStore: shard count, partitioner
// choice, the per-shard LiveOptions, the snapshot directory, and the
// online rebalancer (ShardedOptions.Rebalance).
type ShardedOptions = sharded.Config

// RebalanceOptions tunes the online shard rebalancer: a background
// watcher compares shard sizes every CheckInterval and, when the largest
// shard exceeds MaxSkew times the mean, re-learns the range partitioner's
// equi-depth cuts from a sample of the live shards and migrates rows
// between neighbors — readers stay lock-free and exact throughout, and a
// crash mid-migration recovers consistently (the snapshot manifest
// carries the partitioner generation). ShardedStore.Rebalance triggers
// one manually.
type RebalanceOptions = sharded.RebalanceConfig

// ShardedStats is a point-in-time summary of a ShardedStore, including
// router pruning counters and per-shard LiveStats.
type ShardedStats = sharded.Stats

// ShardedEvent is one shard's maintenance event, tagged with the shard id.
type ShardedEvent = sharded.Event

// Partitioner assigns rows to shards and prunes shards for queries.
// ShardedOptions chooses between the two built-in ones (Learned selects
// the range partitioner over the default hash); ShardedStore.Partitioner
// returns the one a store routes with.
type Partitioner = sharded.Partitioner

// NewShardedStore partitions table across shards, builds one Tsunami
// index per shard for the slice of the workload that shard can see, and
// starts serving with per-shard background maintenance.
//
//	ss, err := tsunami.NewShardedStore(table, work, tsunami.Options{},
//	    tsunami.ShardedOptions{Shards: 8, Learned: true})
//	defer ss.Close()
//
//	go func() { ss.InsertBatch(rows) }()   // writers scale with shards
//	res := ss.Execute(q)                   // routed, pruned, merged
//
//	ex := tsunami.NewExecutor(ss, tsunami.ExecutorOptions{})
//	out := ex.ExecuteBatch(qs)             // queries spread over the pool
func NewShardedStore(table *Table, workload []Query, o Options, so ShardedOptions) (*ShardedStore, error) {
	return sharded.Open(table, workload, o.coreConfig(core.FullTsunami), so)
}

// RecoverShardedStore reopens a ShardedStore from a snapshot directory
// written by ShardedStore.Save (or maintained under
// ShardedOptions.SnapshotDir): the manifest reconstructs the partitioner
// and every shard reloads, buffered rows included.
func RecoverShardedStore(dir string, workload []Query, so ShardedOptions) (*ShardedStore, error) {
	return sharded.Recover(dir, workload, so)
}
