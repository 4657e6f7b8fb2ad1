package main

import (
	"errors"
	"fmt"
	"sync/atomic"

	tsunami "repro"
)

// stack is what one workload serves from. Which fields are set depends on
// the workload's stackKind; flat and grouped are its query entry points.
type stack struct {
	kind    stackKind
	idx     *tsunami.TsunamiIndex // bare, and under live for served
	live    *tsunami.LiveStore    // served; also the bare index made writable for ingest
	sharded *tsunami.ShardedStore
	exec    *tsunami.Executor
	wstats  *tsunami.WorkloadStats // closed with the stack

	// Counted at the stack's own boundaries: background merges reported
	// through OnEvent, and queries the Executor refused.
	merges, mergeNs  atomic.Int64
	shed, overBudget atomic.Int64
}

func (st *stack) onEvent(ev tsunami.LiveEvent) {
	if ev.Kind == tsunami.LiveEventMerge {
		st.merges.Add(1)
		st.mergeNs.Add(int64(ev.Seconds * 1e9))
	}
}

func (st *stack) liveOptions() tsunami.LiveOptions {
	return tsunami.LiveOptions{MergeThreshold: mergeThreshold, DisableShift: true, OnEvent: st.onEvent}
}

// refused counts an Executor refusal by kind and passes the error on.
func (st *stack) refused(err error) error {
	switch {
	case errors.Is(err, tsunami.ErrShed):
		st.shed.Add(1)
	case errors.Is(err, tsunami.ErrOverBudget):
		st.overBudget.Add(1)
	}
	return err
}

// setUp builds every index and store the workload serves from: optimize,
// cluster, open. This is what setup_s times.
func setUp(sp spec, in *inputs) (*stack, error) {
	st := &stack{kind: sp.kind}
	table := in.data.Store
	switch sp.kind {
	case stackBare:
		st.idx = tsunami.New(table, in.train, sp.options())
	case stackServed:
		st.idx = tsunami.New(table, in.train, sp.options())
		st.serveOver(st.idx, in, cacheEntries)
	case stackSharded:
		ss, err := tsunami.NewShardedStore(table, in.train, sp.options(), tsunami.ShardedOptions{
			Shards: 2, Dim: 0, Learned: true, Live: st.liveOptions(),
			OnEvent: func(ev tsunami.ShardedEvent) { st.onEvent(ev.Event) },
		})
		if err != nil {
			return nil, fmt.Errorf("open sharded store: %w", err)
		}
		st.sharded = ss
	}
	return st, nil
}

// serveOver opens the served kind's LiveStore and Executor over idx.
func (st *stack) serveOver(idx *tsunami.TsunamiIndex, in *inputs, cache int) {
	metrics := tsunami.NewMetrics()
	st.wstats = tsunami.NewWorkloadStats(tsunami.WorkloadOptions{})
	lo := st.liveOptions()
	lo.CacheEntries, lo.Metrics, lo.Workload = cache, metrics, st.wstats
	st.live = tsunami.NewLiveStore(idx, in.train, lo)
	st.exec = tsunami.NewExecutorSource(st.live, tsunami.ExecutorOptions{
		Workers: 2, Metrics: metrics,
		Admission: tsunami.AdmissionConfig{MaxInFlight: 64, MaxRows: uint64(in.data.Store.NumRows())},
	})
}

// twin returns the served kind's stack again over the store's current index
// with the result cache off, for the ladder. Neither writes from then on.
func (st *stack) twin(in *inputs) *stack {
	t := &stack{kind: stackServed, idx: st.live.Index()}
	t.serveOver(t.idx, in, 0)
	return t
}

func (st *stack) flat(q tsunami.Query) (tsunami.Result, error) {
	if st.exec != nil {
		res, err := st.exec.Serve(q, tsunami.PriorityNormal)
		return res, st.refused(err)
	}
	return st.read(q), nil
}

// read answers q from the store under any Executor. The checks after
// ingest use it: the table has outgrown the admission row budget by then.
func (st *stack) read(q tsunami.Query) tsunami.Result {
	switch {
	case st.sharded != nil:
		return st.sharded.Execute(q)
	case st.live != nil:
		return st.live.Execute(q)
	}
	return st.idx.Execute(q)
}

func (st *stack) grouped(q tsunami.Query) (tsunami.GroupedResult, error) {
	switch {
	case st.exec != nil:
		res, err := st.exec.ServeGrouped(q, tsunami.PriorityNormal)
		return res, st.refused(err)
	case st.sharded != nil:
		return st.sharded.ExecuteGrouped(q), nil
	case st.live != nil:
		return st.live.ExecuteGrouped(q), nil
	}
	return st.idx.ExecuteGrouped(q), nil
}

func (st *stack) sizeBytes() uint64 {
	switch {
	case st.sharded != nil:
		return st.sharded.SizeBytes()
	case st.live != nil:
		return st.live.SizeBytes()
	}
	return st.idx.SizeBytes()
}

// writer is the stack's ingest path.
type writer interface {
	InsertBatch(rows [][]int64) error
	Flush() error
}

// openWriter returns the ingest path, first wrapping a bare index in a
// LiveStore: from then on queries go through that store too.
func (st *stack) openWriter() writer {
	if st.sharded != nil {
		return st.sharded
	}
	if st.live == nil {
		st.live = tsunami.NewLiveStore(st.idx, nil, st.liveOptions())
	}
	return st.live
}

// cores lists the Tsunami indexes under the stack, one per shard.
func (st *stack) cores() []*tsunami.TsunamiIndex {
	switch {
	case st.sharded != nil:
		out := make([]*tsunami.TsunamiIndex, st.sharded.NumShards())
		for i := range out {
			out[i] = st.sharded.Shard(i).Index()
		}
		return out
	case st.live != nil:
		return []*tsunami.TsunamiIndex{st.live.Index()}
	}
	return []*tsunami.TsunamiIndex{st.idx}
}

func (st *stack) close() error {
	var errs []error
	if st.exec != nil {
		st.exec.Close()
	}
	if st.live != nil {
		errs = append(errs, st.live.Close())
	}
	if st.sharded != nil {
		errs = append(errs, st.sharded.Close())
	}
	st.wstats.Close()
	return errors.Join(errs...)
}
