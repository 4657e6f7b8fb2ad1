package live

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Range extraction: the live half of an online shard migration. A caller
// (the sharded rebalancer) prepares an extraction off the hot path — the
// store keeps serving and ingesting while the successor index is built —
// then commits it inside its own critical section, atomically removing the
// moving rows from this store so it can drain them into another store's
// ingest path. Maintenance (merges, re-optimizations, snapshots) stays
// paused from Prepare until Release, because the migration protocol owns
// what this store's snapshot file is allowed to contain until the move is
// fully persisted.

// Extraction is a prepared range split of a live store's rows: a successor
// index holding every row outside [lo, hi] on dim, plus the rows inside.
// Between PrepareExtract and Release the store's maintenance is paused;
// reads and writes proceed normally.
type Extraction struct {
	s         *Store
	v         *version
	remaining *core.Tsunami
	moved     [][]int64
	dim       int
	lo, hi    int64

	committed bool
	release   sync.Once
}

// PrepareExtract builds, off the hot path, a successor index holding every
// row of the current epoch outside [lo, hi] (inclusive) on dim, and
// collects the rows inside — from the clustered layout and the delta
// buffers alike (surviving buffered rows are folded into the successor,
// like a merge). The store keeps serving reads and accepting writes while
// the rebuild runs; rows ingested in the meantime are accounted for by
// Commit. Maintenance is paused until Release is called.
func (s *Store) PrepareExtract(dim int, lo, hi int64) (*Extraction, error) {
	s.maintMu.Lock()
	s.mu.Lock()
	closed := s.closed
	v := s.cur.Load()
	s.mu.Unlock()
	if closed {
		s.maintMu.Unlock()
		return nil, errClosed
	}
	remaining, moved, err := v.idx.SplitRange(dim, lo, hi)
	if err != nil {
		s.maintMu.Unlock()
		return nil, fmt.Errorf("live: extract: %w", err)
	}
	return &Extraction{s: s, v: v, remaining: remaining, moved: moved, dim: dim, lo: lo, hi: hi}, nil
}

// Commit publishes the prepared remainder as the store's next epoch,
// replaying every row ingested since PrepareExtract (in-range tail rows
// join the moved set instead), and returns all moved rows. The critical
// section is proportional to the rows ingested during preparation, not to
// the data. After Commit the store no longer serves the moved rows; the
// caller is responsible for landing them somewhere before making the
// removal observable to its own readers. Maintenance stays paused until
// Release.
func (e *Extraction) Commit() ([][]int64, error) {
	if e.committed {
		return nil, errors.New("live: extraction committed twice")
	}
	tail, _, err := e.s.publishSuccessor(e.v, e.remaining, func(row []int64) bool {
		return row[e.dim] >= e.lo && row[e.dim] <= e.hi
	})
	if err != nil {
		return nil, fmt.Errorf("live: extract: %w", err)
	}
	e.moved = append(e.moved, tail...)
	e.committed = true
	return e.moved, nil
}

// Release resumes the store's maintenance. It must be called exactly once
// per prepared extraction — after Commit, or instead of it to abort (an
// aborted extraction leaves the store untouched). Safe to call from a
// defer alongside an explicit call.
func (e *Extraction) Release() {
	e.release.Do(e.s.maintMu.Unlock)
}

// HoldMaintenance waits for any in-flight maintenance operation (merge,
// re-optimization, snapshot — including the periodic snapshot loop and
// Flush) to finish and keeps further ones paused until the returned
// release func is called. Reads and writes proceed normally. The sharded
// rebalancer holds the destination shard's maintenance across a migration
// so the shard's snapshot file cannot change under the crash protocol.
func (s *Store) HoldMaintenance() (release func()) {
	s.maintMu.Lock()
	var once sync.Once
	return func() { once.Do(s.maintMu.Unlock) }
}
