package colstore

import (
	"math/bits"

	"repro/internal/query"
)

// Branch-free block-wise scan kernels.
//
// The non-exact ScanRange path processes rows in fixed-size blocks: every
// filter is evaluated into a selection bitmask (one bit per row) with a
// branchless range compare, masks are ANDed across filters, and the
// aggregate reads the combined mask — COUNT by popcount, SUM by masked
// accumulation. The per-value compare is the unsigned-subtract trick:
// for lo <= hi, v is in [lo, hi] iff uint64(v-lo) <= uint64(hi-lo)
// (two's-complement wraparound makes both sides the true differences mod
// 2^64, and an out-of-range v always lands above the width). bits.Sub64
// turns the comparison into a borrow flag, so mask construction compiles
// to straight-line sub/sbb/shift/or with no data-dependent branches.
//
// The dispatch specializes per (agg x filter-count) shape: 0 filters need
// no mask at all, 1 filter folds mask construction and aggregation into
// one pass with no mask buffer, and N filters materialize a per-block mask
// that later filters AND into (skipping blocks and words already dead).
// ScanRangeScalar retains the original row-at-a-time loop as the oracle
// the kernels are property-tested against.
//
// On amd64 with AVX2 (detected once at startup, see kernels_avx2.go) the
// same shapes dispatch to hand-written assembly processing 4 int64 lanes
// per instruction with software prefetch; the portable kernels in this
// file are the universal fallback (`purego` build tag, non-amd64, old
// CPUs, or TSUNAMI_PUREGO=1) and the middle tier of the three-way
// differential test SIMD == portable == scalar.
const (
	// blockRows is the kernel block size: 16 mask words of 64 rows.
	// Cache-residency math for the N-filter path, which revisits the
	// block once per filter and once for the aggregate: 1024 rows x 8 B =
	// 8 KiB per column, so a 4-filter SUM touches ~40 KiB of column data
	// per block plus the 128 B mask — resident in L1d (32-48 KiB) on the
	// cores this targets, which is what makes the later per-filter passes
	// and the masked aggregation hit L1 instead of re-streaming from L2.
	// Doubling to 2048 rows overflows L1d at 3+ filters and measured
	// slower on the count_4f shape; halving doubles the per-block
	// dispatch overhead without improving residency.
	blockRows  = 1024
	blockWords = blockRows / 64
)

// BenchShape is one (agg x filter-count) scan shape of the kernel
// benchmark suite. The canonical list lives in KernelBenchShapes so the
// three families CI pairs shape by shape — BenchmarkScanKernels,
// BenchmarkScanKernelsPortable, BenchmarkScanScalar — run the same shapes.
type BenchShape struct {
	Name  string
	Query query.Query
}

// KernelBenchShapes returns the canonical kernel benchmark shapes: the
// specialized (agg x 0/1/N-filter) dispatch targets, with ~50% selectivity
// per filter over uniform [0, 1e6) data — the worst case for a branchy
// scalar scan, so the kernel speedup these shapes measure is the floor.
func KernelBenchShapes() []BenchShape {
	f := func(dim int) query.Filter { return query.Filter{Dim: dim, Lo: 250_000, Hi: 750_000} }
	return []BenchShape{
		{"count_1f", query.NewCount(f(0))},
		{"count_2f", query.NewCount(f(0), f(1))},
		{"count_4f", query.NewCount(f(0), f(1), f(2), f(3))},
		{"sum_1f", query.NewSum(3, f(0))},
		{"sum_2f", query.NewSum(3, f(0), f(1))},
	}
}

// maskWord evaluates the range predicate [lo, lo+width] over exactly 64
// values and returns the selection bitmask (bit k set iff vals[k] matches).
// width is uint64(hi-lo); see the package comment for why the unsigned
// compare is exact over the full int64 domain.
func maskWord(vals []int64, lo int64, width uint64) uint64 {
	vals = vals[:64:64]
	var m uint64
	for k := 0; k < 64; k++ {
		_, borrow := bits.Sub64(width, uint64(vals[k]-lo), 0)
		m |= (borrow ^ 1) << k
	}
	return m
}

// maskedSum accumulates vals[k] for every set bit k without branching:
// a cleared bit contributes vals[k] & 0.
func maskedSum(vals []int64, m uint64) int64 {
	vals = vals[:64:64]
	var sum int64
	for k := 0; k < 64; k++ {
		sum += vals[k] & -int64((m>>k)&1)
	}
	return sum
}

// scanOneFilter dispatches the single-filter kernel to the AVX2 or
// portable tier (one-time CPU detection, runtime-togglable for tests).
func (s *Store) scanOneFilter(q query.Query, start, end int, res *ScanResult) {
	if simdEnabled() {
		s.scanOneFilterSIMD(q, start, end, res)
		return
	}
	s.scanOneFilterPortable(q, start, end, res)
}

// scanManyFilters dispatches the N-filter kernel to the AVX2 or portable
// tier.
func (s *Store) scanManyFilters(q query.Query, start, end int, res *ScanResult) {
	if simdEnabled() {
		s.scanManyFiltersSIMD(q, start, end, res)
		return
	}
	s.scanManyFiltersPortable(q, start, end, res)
}

// scanOneFilterPortable is the single-filter kernel: mask one 64-row word
// at a time and aggregate it immediately, so no mask buffer is needed.
func (s *Store) scanOneFilterPortable(q query.Query, start, end int, res *ScanResult) {
	f := q.Filters[0]
	col := s.cols[f.Dim][start:end]
	width := uint64(f.Hi - f.Lo)
	n := len(col)
	nw := n &^ 63
	count := 0
	if q.Agg == query.Count {
		for base := 0; base < nw; base += 64 {
			count += bits.OnesCount64(maskWord(col[base:base+64], f.Lo, width))
		}
		for _, v := range col[nw:] {
			if v >= f.Lo && v <= f.Hi {
				count++
			}
		}
		res.Count += uint64(count)
		return
	}
	agg := s.cols[q.AggDim][start:end]
	var sum int64
	for base := 0; base < nw; base += 64 {
		m := maskWord(col[base:base+64], f.Lo, width)
		if m == 0 {
			continue
		}
		count += bits.OnesCount64(m)
		sum += maskedSum(agg[base:base+64], m)
	}
	for i := nw; i < n; i++ {
		if v := col[i]; v >= f.Lo && v <= f.Hi {
			count++
			sum += agg[i]
		}
	}
	res.Count += uint64(count)
	res.Sum += sum
}

// scanManyFiltersPortable is the N-filter kernel: per block, evaluate each
// filter column-at-a-time into the block mask (first filter writes, later
// filters AND), short-circuiting filters once a block's mask is all-zero
// and skipping dead words, then aggregate the combined mask.
func (s *Store) scanManyFiltersPortable(q query.Query, start, end int, res *ScanResult) {
	var mask [blockWords]uint64
	var agg []int64
	doSum := q.Agg == query.Sum
	if doSum {
		agg = s.cols[q.AggDim][start:end]
	}
	n := end - start
	count := 0
	var sum int64
	for b0 := 0; b0 < n; b0 += blockRows {
		bn := n - b0
		if bn > blockRows {
			bn = blockRows
		}
		nw := bn >> 6
		var any uint64
		if nw > 0 {
			for fi, f := range q.Filters {
				col := s.cols[f.Dim][start+b0 : start+b0+nw*64]
				width := uint64(f.Hi - f.Lo)
				any = 0
				if fi == 0 {
					for w := 0; w < nw; w++ {
						m := maskWord(col[w*64:], f.Lo, width)
						mask[w] = m
						any |= m
					}
				} else {
					for w := 0; w < nw; w++ {
						m := mask[w]
						if m == 0 {
							continue
						}
						m &= maskWord(col[w*64:], f.Lo, width)
						mask[w] = m
						any |= m
					}
				}
				if any == 0 {
					break
				}
			}
		}
		if any != 0 {
			if doSum {
				for w := 0; w < nw; w++ {
					m := mask[w]
					if m == 0 {
						continue
					}
					count += bits.OnesCount64(m)
					sum += maskedSum(agg[b0+w*64:], m)
				}
			} else {
				for w := 0; w < nw; w++ {
					count += bits.OnesCount64(mask[w])
				}
			}
		}
		// Scalar tail: the final sub-word rows of the last block.
		for i := b0 + nw*64; i < b0+bn; i++ {
			row := start + i
			ok := true
			for _, f := range q.Filters {
				v := s.cols[f.Dim][row]
				if v < f.Lo || v > f.Hi {
					ok = false
					break
				}
			}
			if ok {
				count++
				if doSum {
					sum += s.cols[q.AggDim][row]
				}
			}
		}
	}
	res.Count += uint64(count)
	res.Sum += sum
}
