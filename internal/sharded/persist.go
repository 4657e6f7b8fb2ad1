package sharded

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/query"
)

// On-disk layout of a sharded snapshot directory:
//
//	MANIFEST        gob manifest: format version, partitioner spec,
//	                partitioner generation, and — only while a cut
//	                migration is being persisted — the pending move
//	shard-0000.snap per-shard core format-v2 snapshot (clustered data,
//	shard-0001.snap grids, and buffered-but-unmerged delta rows)
//	shard-0000.gen  per-shard generation stamp: the partitioner
//	...             generation the shard's snapshot was written under
//
// Every file is written atomically (temp file, fsync, rename), so a crash
// mid-write leaves the previous version intact. The manifest is written
// last on Save: a directory with a manifest always has a full shard set.
//
// Crash consistency across a cut migration (rebalance.go): moving rows
// between two shards cannot update both shard files and the manifest in
// one atomic step, so the move follows a write-intent protocol —
//
//	1. manifest {old spec, gen G, pending move}   (intent)
//	2. the in-memory migration commits
//	3. dst shard file + dst generation stamp G+1  (moved rows durable)
//	4. src shard file + src generation stamp G+1  (moved rows removed)
//	5. manifest {new spec, gen G+1, no pending}   (commit)
//
// A crash without a pending move recovers as-is. A crash with one is
// reconciled by the stamps: if either migrating shard advanced past G the
// move rolls forward (the destination's copy of the moved rows was made
// durable before the source's copy could disappear — write order 3 < 4),
// otherwise it rolls back; in both cases the two shard files are
// sanitized to the rows their shard owns under the chosen cuts, which
// drops whichever half-written duplicate copy the crash left behind.
// Shards not involved in the move hold the same rows under either
// generation, so their files load as-is.

const manifestVersion = 2

// manifestName is the directory's partitioner + layout descriptor.
const manifestName = "MANIFEST"

type manifest struct {
	FormatVersion int
	Spec          Spec
	// Generation is the partitioner generation the directory reflects
	// (0 in format-v1 directories, which predate rebalancing).
	Generation uint64
	// Pending, when non-nil, records a cut migration whose persistence
	// was in flight; Recover reconciles it.
	Pending *pendingMove
}

// pendingMove is the write-intent record of one single-cut migration.
type pendingMove struct {
	CutIndex int
	NewCut   int64
	OldCut   int64
	Src, Dst int
}

// shardFile names shard i's snapshot file in dir.
func shardFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.snap", i))
}

// shardGenFile names shard i's generation stamp in dir.
func shardGenFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.gen", i))
}

// writeShardGen atomically stamps shard i's snapshot with the partitioner
// generation it was written under.
func writeShardGen(dir string, i int, gen uint64) error {
	return live.WriteAtomic(shardGenFile(dir, i), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", gen)
		return err
	})
}

// readShardGen returns shard i's generation stamp, or 0 when the stamp is
// missing or unreadable (format-v1 directories have none).
func readShardGen(dir string, i int) uint64 {
	b, err := os.ReadFile(shardGenFile(dir, i))
	if err != nil {
		return 0
	}
	gen, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0
	}
	return gen
}

// writeShardSnapshot atomically writes shard i's snapshot file, then its
// generation stamp.
func writeShardSnapshot(dir string, i int, idx *core.Tsunami, gen uint64) error {
	if err := live.WriteAtomic(shardFile(dir, i), idx.Save); err != nil {
		return fmt.Errorf("sharded: shard %d snapshot: %w", i, err)
	}
	if err := writeShardGen(dir, i, gen); err != nil {
		return fmt.Errorf("sharded: shard %d snapshot: %w", i, err)
	}
	return nil
}

// Save writes a mutually consistent snapshot of every shard to dir: one
// manifest plus one format-v2 snapshot (and generation stamp) per shard.
// The cut is taken under the ingest gate — writers block for the few
// pointer loads it takes to capture every shard's current epoch, never
// for the serialization — so no insert batch is split across the
// snapshot. Readers are never blocked. Safe to call while serving, and
// after Close.
func (s *Store) Save(dir string) error {
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	return s.save(dir)
}

// save is Save without the rebalance barrier.
func (s *Store) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sharded: save: %w", err)
	}
	// The consistent cut: with the gate held exclusively there are no
	// in-flight batches, so the captured epochs agree on every batch.
	s.mu.Lock()
	top := s.topo.Load()
	handles := make([]*core.Tsunami, len(s.shards))
	for i, sh := range s.shards {
		handles[i] = sh.Index()
	}
	s.mu.Unlock()

	err := eachShard(len(handles), func(i int) error {
		return writeShardSnapshot(dir, i, handles[i], top.gen)
	})
	if err != nil {
		return fmt.Errorf("sharded: save: %w", err)
	}
	return writeManifest(dir, top.parts.Spec(), top.gen, nil)
}

// Recover reopens a sharded store from a snapshot directory written by
// Save (or assembled by the per-shard snapshot loops under SnapshotDir):
// the manifest reconstructs the partitioner, each shard file reloads its
// index — buffered rows included — and serving resumes. A directory left
// by a crash mid-rebalance is reconciled first (see the protocol above).
// workload seeds each shard's shift detector (nil disables detection), as
// in Open. cfg.Shards/Dim/Learned are ignored: the manifest decides. A
// manifest that does not fit the shard files beside it (a shard file
// missing, a partition dim outside the table, shards of different widths)
// is an error.
func Recover(dir string, workload []query.Query, cfg Config) (*Store, error) {
	if cfg.Live.SnapshotPath != "" {
		return nil, errors.New("sharded: set Config.SnapshotDir, not Live.SnapshotPath (shards derive their own files)")
	}
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	parts, err := m.Spec.Partitioner()
	if err != nil {
		return nil, fmt.Errorf("sharded: recover: %w", err)
	}
	// Every named shard file must exist before any per-shard state is
	// allocated: a manifest naming more shards than the directory holds
	// fails at the first missing file.
	for i := 0; i < parts.NumShards(); i++ {
		if _, err := os.Stat(shardFile(dir, i)); err != nil {
			return nil, fmt.Errorf("sharded: recover: %w", err)
		}
	}
	gen := m.Generation
	if gen == 0 {
		gen = 1 // format-v1 directories predate generations
	}

	// Reconcile a crash mid-rebalance: roll the interrupted move forward
	// when either migrating shard's stamp advanced (the destination's copy
	// of the moved rows is durable by write order), back otherwise.
	var sanitize []int
	if p := m.Pending; p != nil {
		rp, ok := parts.(*RangePartitioner)
		if !ok || p.CutIndex < 0 || p.CutIndex >= len(rp.cuts) ||
			p.Src < 0 || p.Src >= parts.NumShards() || p.Dst < 0 || p.Dst >= parts.NumShards() {
			return nil, fmt.Errorf("sharded: recover: manifest has an invalid pending move %+v", p)
		}
		// The new cut must keep the vector ascending — ShardOf and Shards
		// binary-search it, so rolling forward into an unsorted vector
		// would misroute silently rather than fail.
		if (p.CutIndex > 0 && p.NewCut < rp.cuts[p.CutIndex-1]) ||
			(p.CutIndex < len(rp.cuts)-1 && p.NewCut > rp.cuts[p.CutIndex+1]) {
			return nil, fmt.Errorf("sharded: recover: pending move's cut %d breaks cut ordering", p.NewCut)
		}
		if readShardGen(dir, p.Dst) > m.Generation || readShardGen(dir, p.Src) > m.Generation {
			parts = rp.WithCut(p.CutIndex, p.NewCut)
			gen = m.Generation + 1
		}
		sanitize = []int{p.Src, p.Dst}
	}

	idxs := make([]*core.Tsunami, parts.NumShards())
	err = eachShard(len(idxs), func(i int) error {
		f, err := os.Open(shardFile(dir, i))
		if err != nil {
			return err
		}
		defer f.Close()
		idxs[i], err = core.Load(f)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sharded: recover: %w", err)
	}
	// The manifest is the one place a partitioner comes from outside the
	// program: it must route on a dimension every shard has.
	dims := idxs[0].Store().NumDims()
	for i, idx := range idxs {
		if d := idx.Store().NumDims(); d != dims {
			return nil, fmt.Errorf("sharded: recover: shard %d has %d dims, shard 0 has %d", i, d, dims)
		}
	}
	if m.Spec.Dim < 0 || m.Spec.Dim >= dims {
		return nil, fmt.Errorf("sharded: recover: manifest partitions on dim %d of %d", m.Spec.Dim, dims)
	}
	for _, i := range sanitize {
		idxs[i], err = keepOwned(idxs[i], parts.(*RangePartitioner), i)
		if err != nil {
			return nil, fmt.Errorf("sharded: recover: sanitize shard %d: %w", i, err)
		}
	}
	s, err := openShards(parts, idxs, workload, cfg, gen)
	if err != nil {
		return nil, err
	}
	// Clear the pending marker in the recovered directory unless
	// openShards already rewrote that same directory (SnapshotDir == dir),
	// so the next Recover starts from a clean manifest.
	if len(sanitize) > 0 && cfg.SnapshotDir != dir {
		if err := s.Save(dir); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// keepOwned drops every row shard i does not own under p's cuts. Used
// only on the two shards of a reconciled move: the dropped rows are the
// half-written duplicates the crash left in exactly one of the pair.
func keepOwned(idx *core.Tsunami, p *RangePartitioner, i int) (*core.Tsunami, error) {
	lo, hi := p.Bounds(i)
	if lo > hi {
		// Squeezed-empty shard: it owns nothing.
		idx, _, err := idx.SplitRange(p.dim, math.MinInt64, math.MaxInt64)
		return idx, err
	}
	var err error
	if lo > math.MinInt64 {
		idx, _, err = idx.SplitRange(p.dim, math.MinInt64, lo-1)
		if err != nil {
			return nil, err
		}
	}
	if hi < math.MaxInt64 {
		idx, _, err = idx.SplitRange(p.dim, hi+1, math.MaxInt64)
		if err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// writeManifest atomically writes dir's manifest.
func writeManifest(dir string, spec Spec, gen uint64, pending *pendingMove) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sharded: manifest: %w", err)
	}
	m := manifest{FormatVersion: manifestVersion, Spec: spec, Generation: gen, Pending: pending}
	err := live.WriteAtomic(filepath.Join(dir, manifestName), func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(&m)
	})
	if err != nil {
		return fmt.Errorf("sharded: manifest: %w", err)
	}
	return nil
}

// readManifest loads and validates dir's manifest.
func readManifest(dir string) (*manifest, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("sharded: recover: %w", err)
	}
	defer f.Close()
	var m manifest
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("sharded: recover: bad manifest: %w", err)
	}
	if m.FormatVersion < 1 || m.FormatVersion > manifestVersion {
		return nil, fmt.Errorf("sharded: recover: manifest version %d, want 1..%d", m.FormatVersion, manifestVersion)
	}
	return &m, nil
}
