package sharded

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/colstore"
	"repro/internal/query"
)

// A Partitioner assigns every row to exactly one shard and, for a query,
// names the shards whose rows could match — the router's pruning step.
//
// Implementations must be deterministic and safe for concurrent use after
// construction: ShardOf and Shards are called from the ingest and read hot
// paths with no synchronization.
type Partitioner interface {
	// NumShards is the fixed shard count.
	NumShards() int
	// ShardOf returns the shard owning row, in [0, NumShards).
	ShardOf(row []int64) int
	// Shards appends to dst the ids of every shard that could hold a row
	// matching q, and returns the result. Soundness is required (a shard
	// holding a matching row must be listed); precision is the quality
	// metric (fewer listed shards = fewer shards scanned).
	Shards(q query.Query, dst []int) []int
	// Spec returns the serializable description used by the snapshot
	// manifest to reconstruct the partitioner on Recover.
	Spec() Spec
	// String describes the partitioner for logs and Stats.
	String() string
}

// Spec is the serializable form of a partitioner.
type Spec struct {
	Kind string  // "hash" or "range"
	Dim  int     // the partitioned dimension
	N    int     // shard count
	Cuts []int64 // range only: ascending cut points, len N-1
}

// Partitioner reconstructs the partitioner a Spec describes.
func (s Spec) Partitioner() (Partitioner, error) {
	switch s.Kind {
	case "hash":
		if s.N <= 0 {
			return nil, fmt.Errorf("sharded: hash spec with %d shards", s.N)
		}
		return NewHash(s.Dim, s.N), nil
	case "range":
		if len(s.Cuts) != s.N-1 {
			return nil, fmt.Errorf("sharded: range spec with %d cuts for %d shards", len(s.Cuts), s.N)
		}
		for i := 1; i < len(s.Cuts); i++ {
			if s.Cuts[i] < s.Cuts[i-1] {
				return nil, fmt.Errorf("sharded: range spec cuts not ascending")
			}
		}
		return &RangePartitioner{dim: s.Dim, cuts: append([]int64(nil), s.Cuts...)}, nil
	default:
		return nil, fmt.Errorf("sharded: unknown partitioner kind %q", s.Kind)
	}
}

// allShards appends 0..n-1 to dst.
func allShards(n int, dst []int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// HashPartitioner spreads rows uniformly by a mixed hash of one
// dimension's value. It is the robust default: balanced shards on any
// data, no tuning. Its pruning is weak — only an equality filter on the
// hashed dimension routes to a single shard; every other query fans out
// to all shards.
type HashPartitioner struct {
	dim int
	n   int
}

// NewHash builds a hash partitioner over dimension dim with n shards.
func NewHash(dim, n int) *HashPartitioner { return &HashPartitioner{dim: dim, n: n} }

// NumShards implements Partitioner.
func (p *HashPartitioner) NumShards() int { return p.n }

// ShardOf implements Partitioner.
func (p *HashPartitioner) ShardOf(row []int64) int {
	return int(mix(uint64(row[p.dim])) % uint64(p.n))
}

// Shards implements Partitioner: an equality filter on the hashed
// dimension pins the query to one shard; anything else could match rows
// anywhere.
func (p *HashPartitioner) Shards(q query.Query, dst []int) []int {
	if f, ok := q.Filter(p.dim); ok && f.IsEquality() {
		return append(dst, int(mix(uint64(f.Lo))%uint64(p.n)))
	}
	return allShards(p.n, dst)
}

// Spec implements Partitioner.
func (p *HashPartitioner) Spec() Spec { return Spec{Kind: "hash", Dim: p.dim, N: p.n} }

func (p *HashPartitioner) String() string { return fmt.Sprintf("hash(d%d,%d)", p.dim, p.n) }

// mix is the splitmix64 finalizer: full-avalanche, so consecutive values
// (timestamps, ids) spread uniformly across shards.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// RangePartitioner assigns rows by which range of the partitioned
// dimension they fall in: shard i owns values in [cuts[i-1], cuts[i])
// (first shard unbounded below, last unbounded above). Learned from the
// data's empirical CDF (LearnRange), it keeps shards balanced while
// making pruning strong: any range filter on the partitioned dimension
// touches only the shards its interval overlaps, so range scans on the
// clustered dimension hit few shards.
type RangePartitioner struct {
	dim  int
	cuts []int64 // ascending; len = NumShards-1
}

// LearnRange learns an equi-depth range partitioning of dimension dim
// into n shards from the table: cut points are quantiles of the column,
// so each shard starts with roughly the same number of rows. Heavily
// duplicated values can leave some shards empty (duplicate cut points);
// they still serve and absorb future inserts.
func LearnRange(table *colstore.Store, dim, n int) *RangePartitioner {
	const maxSample = 1 << 16
	col := table.Column(dim)
	var sample []int64
	if len(col) <= maxSample {
		sample = append([]int64(nil), col...)
	} else {
		// Evenly spaced over the whole column (i*len/max, not a truncated
		// stride, which would only ever sample a prefix).
		sample = make([]int64, 0, maxSample)
		for i := 0; i < maxSample; i++ {
			sample = append(sample, col[i*len(col)/maxSample])
		}
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	return &RangePartitioner{dim: dim, cuts: cutsFromSorted(sample, n)}
}

// cutsFromSorted picks n-1 equi-depth cut points (quantiles) from an
// ascending sample. Shared by LearnRange and the online rebalancer's cut
// re-learning.
func cutsFromSorted(sample []int64, n int) []int64 {
	cuts := make([]int64, 0, n-1)
	for i := 1; i < n; i++ {
		if len(sample) == 0 {
			cuts = append(cuts, 0)
			continue
		}
		k := i * len(sample) / n
		if k >= len(sample) {
			k = len(sample) - 1
		}
		cuts = append(cuts, sample[k])
	}
	return cuts
}

// NumShards implements Partitioner.
func (p *RangePartitioner) NumShards() int { return len(p.cuts) + 1 }

// ShardOf implements Partitioner.
func (p *RangePartitioner) ShardOf(row []int64) int {
	v := row[p.dim]
	return sort.Search(len(p.cuts), func(i int) bool { return p.cuts[i] > v })
}

// Shards implements Partitioner: a filter on the partitioned dimension
// restricts the query to the contiguous run of shards its interval
// overlaps; other queries fan out to all shards.
func (p *RangePartitioner) Shards(q query.Query, dst []int) []int {
	f, ok := q.Filter(p.dim)
	if !ok {
		return allShards(p.NumShards(), dst)
	}
	first := sort.Search(len(p.cuts), func(i int) bool { return p.cuts[i] > f.Lo })
	last := sort.Search(len(p.cuts), func(i int) bool { return p.cuts[i] > f.Hi })
	for i := first; i <= last; i++ {
		dst = append(dst, i)
	}
	return dst
}

// Cuts returns the learned cut points (ascending, one fewer than shards).
func (p *RangePartitioner) Cuts() []int64 { return p.cuts }

// Dim returns the partitioned dimension.
func (p *RangePartitioner) Dim() int { return p.dim }

// WithCut returns a copy of p with cut i moved to c. The caller must keep
// the cut vector ascending (the rebalancer's clamped passes do).
func (p *RangePartitioner) WithCut(i int, c int64) *RangePartitioner {
	cuts := append([]int64(nil), p.cuts...)
	cuts[i] = c
	return &RangePartitioner{dim: p.dim, cuts: cuts}
}

// Bounds returns the inclusive value range shard i owns on the
// partitioned dimension, using math.MinInt64/MaxInt64 for the unbounded
// ends. A shard squeezed between duplicate cuts owns an empty range
// (lo > hi).
func (p *RangePartitioner) Bounds(i int) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if i > 0 {
		lo = p.cuts[i-1]
	}
	if i < len(p.cuts) {
		if p.cuts[i] == math.MinInt64 {
			// Degenerate cut at the domain floor: nothing sits below it.
			return 1, 0 // canonical empty range
		}
		hi = p.cuts[i] - 1
	}
	if lo > hi {
		return 1, 0 // duplicate cuts squeeze this shard empty
	}
	return lo, hi
}

// Spec implements Partitioner.
func (p *RangePartitioner) Spec() Spec {
	return Spec{Kind: "range", Dim: p.dim, N: p.NumShards(), Cuts: append([]int64(nil), p.cuts...)}
}

func (p *RangePartitioner) String() string {
	return fmt.Sprintf("range(d%d,%d)", p.dim, p.NumShards())
}
