package sharded

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

// Online shard rebalancing. The learned range cuts are fixed at Open, so
// skewed ingest (all fresh rows landing in the last time shard, say)
// slowly unbalances shards and erodes both ingest parallelism and the
// router's pruning — the same workload-drift problem the shift detector
// solves for region grids, now at the shard level. The rebalancer watches
// per-shard row counts (clustered plus delta pressure), re-learns
// equi-depth cuts from a sampled merged view when the imbalance crosses a
// threshold, and migrates rows between neighboring shards without
// blocking readers.
//
// A rebalance decomposes into single-cut moves: shifting cut i migrates
// exactly the rows between the old and new cut value between shards i and
// i+1, and publishes an intermediate partitioner that exactly describes
// the new placement. Decreasing cuts are applied left to right and
// increasing cuts right to left, which keeps the vector ascending — and
// routing exact — at every intermediate step. Each move runs in three
// phases:
//
//  1. Prepare (concurrent with everything): the source shard builds a
//     successor index without the moving range (live.PrepareExtract /
//     core.SplitRange) while it keeps serving and ingesting. Both shards'
//     maintenance is paused so their snapshot files stay put for the
//     crash protocol (persist.go).
//  2. Commit (the only exclusive window): with the ingest gate held, the
//     extraction commits (replaying rows ingested during the prepare),
//     the moved rows drain into the destination's ingest path, and the
//     successor partitioner is published. Readers planning across this
//     window retry the planning (see Store.Plan); writers wait on the
//     gate. The window's cost is the moved-row handoff, never the index
//     rebuild.
//  3. Persist (concurrent again): when a SnapshotDir is configured, the
//     move is made durable — destination snapshot, source snapshot, then
//     the clean manifest — in the order Recover's reconciliation assumes.
type RebalanceConfig struct {
	// CheckInterval is how often the background watcher compares shard
	// sizes (0 disables the watcher; Rebalance can still be called
	// manually).
	CheckInterval time.Duration
	// MaxSkew triggers a rebalance when the largest shard holds more than
	// MaxSkew times the mean shard's rows, counting both clustered and
	// buffered rows (default 2, minimum 1.1). The watcher never triggers
	// below 4096 rows in total.
	MaxSkew float64
}

const (
	// minRebalanceRows is the total row count below which the watcher
	// never triggers.
	minRebalanceRows = 4096
	// rebalanceSample is how many values the rebalancer samples across
	// shards to re-learn the equi-depth cuts.
	rebalanceSample = 1 << 15
)

func (c *RebalanceConfig) fill() {
	if c.MaxSkew <= 0 {
		c.MaxSkew = 2
	}
	if c.MaxSkew < 1.1 {
		c.MaxSkew = 1.1
	}
}

// errNotRange reports a rebalance attempt on a partitioner without
// movable cuts.
var errNotRange = errors.New("sharded: rebalancing requires the learned range partitioner")

// Skew reports the current imbalance — the largest shard's rows
// (clustered + buffered) over the mean — and the total row count.
func (s *Store) Skew() (maxOverMean float64, total int) {
	max := 0
	for _, sh := range s.shards {
		st := sh.Stats()
		n := st.ClusteredRows + st.BufferedRows
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(max) * float64(len(s.shards)) / float64(total), total
}

// watchBalance is the background watcher: it checks shard sizes every
// CheckInterval and rebalances when the skew threshold trips.
func (s *Store) watchBalance() {
	defer close(s.rebalDone)
	t := time.NewTicker(s.rebalCfg.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-s.rebalQuit:
			return
		case <-t.C:
			skew, total := s.Skew()
			if total < minRebalanceRows || skew < s.rebalCfg.MaxSkew {
				continue
			}
			if err := s.Rebalance(); err != nil && !errors.Is(err, errClosed) {
				s.emit(Event{Shard: -1, Event: live.Event{Kind: live.EventError, Err: err}})
			}
		}
	}
}

// Rebalance re-learns the equi-depth cuts from a sample of the current
// shard contents and migrates rows between neighboring shards until the
// placement matches, publishing an exact intermediate partitioner after
// every single-cut move. Reads stay lock-free throughout (migration
// commit windows are retried, not waited on); writers block only for the
// commit windows. Stats().RowsMigrated and Generation track progress.
// Safe to call at any time; concurrent calls serialize.
func (s *Store) Rebalance() (err error) {
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return errClosed
	}
	top := s.topo.Load()
	rp, ok := top.parts.(*RangePartitioner)
	if !ok {
		return errNotRange
	}

	start := time.Now()
	target := s.relearnCuts(rp)

	// Apply decreasing cuts left to right, then increasing cuts right to
	// left: with both the current and target vectors ascending, every
	// intermediate vector stays ascending (the clamps are belt and
	// braces). Each step migrates one contiguous range between neighbors.
	cur := append([]int64(nil), rp.cuts...)
	type cutStep struct {
		i int
		c int64
	}
	var steps []cutStep
	for i := 0; i < len(cur); i++ {
		c := target[i]
		if i > 0 && c < cur[i-1] {
			c = cur[i-1]
		}
		if c < cur[i] {
			steps = append(steps, cutStep{i, c})
			cur[i] = c
		}
	}
	for i := len(cur) - 1; i >= 0; i-- {
		c := target[i]
		if i < len(cur)-1 && c > cur[i+1] {
			c = cur[i+1]
		}
		if c > cur[i] {
			steps = append(steps, cutStep{i, c})
			cur[i] = c
		}
	}
	if len(steps) == 0 {
		return nil
	}

	moved := 0
	for _, st := range steps {
		n, err := s.moveCut(st.i, st.c)
		// Rows a step moved are migrated whether or not a later step (or
		// this step's persistence) fails, so account for them immediately:
		// Stats must agree with the published generation.
		moved += n
		s.rowsMigrated.Add(uint64(n))
		if m := s.metrics; m != nil {
			m.rowsMigrated.Add(uint64(n))
		}
		if err != nil {
			// The partitioner is at a consistent intermediate state: every
			// completed move published an exact placement. Report and stop.
			return fmt.Errorf("sharded: rebalance: %w", err)
		}
	}
	s.rebalances.Add(1)
	if m := s.metrics; m != nil {
		m.rebalances.Inc()
	}
	s.emit(Event{Shard: -1, Event: live.Event{
		Kind:       live.EventRebalance,
		Epoch:      s.topo.Load().gen,
		MergedRows: moved,
		Seconds:    time.Since(start).Seconds(),
	}})
	return nil
}

// relearnCuts samples every shard's current contents — clustered rows and
// buffered rows alike, weighted by shard size — and returns fresh
// equi-depth cut points for the partitioned dimension.
func (s *Store) relearnCuts(rp *RangePartitioner) []int64 {
	counts := make([]int, len(s.shards))
	handles := make([]*core.Tsunami, len(s.shards))
	total := 0
	for i, sh := range s.shards {
		handles[i] = sh.Index()
		counts[i] = handles[i].Store().NumRows() + handles[i].NumBuffered()
		total += counts[i]
	}
	if total == 0 {
		return append([]int64(nil), rp.cuts...)
	}
	sample := make([]int64, 0, rebalanceSample)
	for i, idx := range handles {
		if counts[i] == 0 {
			continue
		}
		k := rebalanceSample * counts[i] / total
		if k < 1 {
			k = 1
		}
		col := idx.Store().Column(rp.dim)
		buffered := idx.BufferedRows()
		m := len(col) + len(buffered)
		for t := 0; t < k; t++ {
			j := t * m / k
			if j < len(col) {
				sample = append(sample, col[j])
			} else {
				sample = append(sample, buffered[j-len(col)][rp.dim])
			}
		}
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	return cutsFromSorted(sample, len(s.shards))
}

// hook invokes the test-only mid-move hook.
func (s *Store) hook(stage string) {
	if s.moveHook != nil {
		s.moveHook(stage)
	}
}

// moveCut shifts cut i of the live range partitioner to c, migrating the
// affected rows between shards i and i+1. Callers hold rebalMu.
func (s *Store) moveCut(i int, c int64) (int, error) {
	top := s.topo.Load()
	rp := top.parts.(*RangePartitioner)
	old := rp.cuts[i]
	if c == old {
		return 0, nil
	}
	var src, dst int
	var lo, hi int64
	if c < old {
		// The boundary moves left: [c, old-1] leaves shard i for i+1.
		src, dst = i, i+1
		lo, hi = c, old-1
	} else {
		// The boundary moves right: [old, c-1] leaves shard i+1 for i.
		src, dst = i+1, i
		lo, hi = old, c-1
	}
	next := rp.WithCut(i, c)
	phaseStart := time.Now()

	// Phase 1 — prepare, concurrent with reads, writes, and other shards'
	// maintenance. Both migrating shards' own maintenance pauses so their
	// snapshot files cannot change under the crash protocol below.
	releaseDst := s.shards[dst].HoldMaintenance()
	defer releaseDst()
	ext, err := s.shards[src].PrepareExtract(rp.dim, lo, hi)
	if err != nil {
		return 0, err
	}
	defer ext.Release()

	// Declare intent: once this manifest is durable, Recover can
	// reconcile any half-persisted state of the two shard files (see
	// persist.go for the full case analysis).
	if s.snapshotDir != "" {
		if err := writeManifest(s.snapshotDir, rp.Spec(), top.gen, &pendingMove{
			CutIndex: i, NewCut: c, OldCut: old, Src: src, Dst: dst,
		}); err != nil {
			return 0, err
		}
		s.hook("pending")
	}

	if m := s.metrics; m != nil {
		m.prepareSeconds.RecordDuration(time.Since(phaseStart))
		phaseStart = time.Now()
	}

	// Phase 2 — commit: the only exclusive window. Writers wait on the
	// ingest gate; readers retry around the odd seqlock value. The window
	// does the tail replay, the moved-row handoff, and three pointer
	// stores — never an index rebuild.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, errClosed
	}
	s.migrating.Add(1) // odd: placement and routing are in flux
	moved, err := ext.Commit()
	if err == nil && len(moved) > 0 {
		if ierr := s.shards[dst].InsertBatch(moved); ierr != nil {
			// Put the rows back where the unchanged partitioner still
			// routes them rather than losing them.
			if rerr := s.shards[src].InsertBatch(moved); rerr != nil {
				ierr = errors.Join(ierr, fmt.Errorf("%d rows stranded: %w", len(moved), rerr))
			}
			err = ierr
		}
	}
	if err == nil {
		s.topo.Store(&topology{parts: next, gen: top.gen + 1})
	}
	s.migrating.Add(1) // even: stable again
	s.mu.Unlock()
	if m := s.metrics; m != nil {
		m.commitSeconds.RecordDuration(time.Since(phaseStart))
		phaseStart = time.Now()
	}
	if err != nil {
		return 0, fmt.Errorf("move cut %d (%d→%d): %w", i, old, c, err)
	}

	// Phase 3 — persist: destination (which gained rows) first, then the
	// source, then the clean manifest. Recover's reconciliation depends on
	// this order: the moved rows are durable in the destination before the
	// source's file can stop containing them. Both shards' maintenance is
	// still held here, so their snapshot loops cannot write files out of
	// this order; transient write failures are retried in place for the
	// same reason — once the holds release, a source-side loop write
	// jumping ahead of a still-missing destination file would be the one
	// state Recover cannot reconcile. If every retry fails the pending
	// manifest stays behind (recovering to the consistent pre-move
	// placement), and the residual risk is confined to that failure mode:
	// the source's later loop snapshots succeeding on a disk where these
	// writes did not.
	if s.snapshotDir != "" {
		err := s.persistMove(src, dst, next, top.gen+1)
		if m := s.metrics; m != nil {
			m.persistSeconds.RecordDuration(time.Since(phaseStart))
		}
		if err != nil {
			return len(moved), err
		}
	}
	return len(moved), nil
}

// persistMove writes a committed move's durable record — destination
// snapshot, source snapshot, clean manifest, in that order — retrying
// transient failures. Callers hold both shards' maintenance.
func (s *Store) persistMove(src, dst int, next *RangePartitioner, gen uint64) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
		}
		if err = writeShardSnapshot(s.snapshotDir, dst, s.shards[dst].Index(), gen); err != nil {
			continue
		}
		s.hook("dst-persisted")
		if err = writeShardSnapshot(s.snapshotDir, src, s.shards[src].Index(), gen); err != nil {
			continue
		}
		s.hook("src-persisted")
		if err = writeManifest(s.snapshotDir, next.Spec(), gen, nil); err != nil {
			continue
		}
		return nil
	}
	return fmt.Errorf("persist move (pending manifest left for recovery): %w", err)
}
