package colstore

import (
	"math/bits"
	"math/rand"

	"repro/internal/query"
)

// Branch-free fused scan kernels.
//
// The non-exact ScanRange path runs one kernel for any number of filters:
// a group of rows is compared against every filter, the per-filter
// results are ANDed while still in registers, and the group is folded at
// once — COUNT by counting the surviving rows, SUM by adding the
// aggregate under the same selection. No selection mask is written to
// memory. The per-value compare is the unsigned-subtract trick: for
// lo <= hi, v is in [lo, hi] iff uint64(v-lo) <= uint64(hi-lo)
// (two's-complement wraparound makes both sides the true differences mod
// 2^64, and an out-of-range v always lands above the width). bits.Sub64
// turns the comparison into a borrow flag, so the selection compiles to
// straight-line sub/sbb/shift/and with no data-dependent branches.
//
// On amd64 with AVX2 (detected once at startup, see kernels_avx2.go) the
// kernel is hand-written assembly comparing 16 rows (4 YMM) at a time,
// then 4, so a range's vector body ends within 3 rows of its end and
// short ranges vectorize without reading past them. The portable kernel
// in this file is the universal fallback (`purego` build tag,
// non-amd64, old CPUs, or TSUNAMI_PUREGO=1): it selects 64-row mask
// words and folds each by popcount and masked sum. Both leave their last
// rows to foldRows, and both are the middle tier of the three-way
// differential test SIMD == portable == scalar, whose oracle is
// ScanRangeScalar's original row-at-a-time loop.

// BenchShape is one scan shape of the kernel benchmark suite: a query and
// the physical ranges it scans, every row filter-checked. The canonical
// list lives in KernelBenchShapes so the three families CI pairs shape by
// shape — BenchmarkScanKernels, BenchmarkScanKernelsPortable,
// BenchmarkScanScalar — run the same shapes.
type BenchShape struct {
	Name   string
	Query  query.Query
	Ranges [][2]int
}

// Rows returns the number of rows the shape's ranges cover.
func (sh BenchShape) Rows() int { return rangeRows(sh.Ranges) }

// KernelBenchShapes returns the canonical kernel benchmark shapes over a
// store of rows rows holding uniform [0, 1e6) values in at least four
// columns, with ~50% selectivity per filter — the worst case for a
// branchy scalar scan, so the kernel speedup these shapes measure is the
// floor. Most scan one full-table range; the _plan shapes scan a
// learned-grid plan's list of short ranges (benchPlan), where a kernel's
// cost per range rather than per row decides.
func KernelBenchShapes(rows int, seed int64) []BenchShape {
	f := func(dim int) query.Filter { return query.Filter{Dim: dim, Lo: 250_000, Hi: 750_000} }
	full := [][2]int{{0, rows}}
	plan := benchPlan(rand.New(rand.NewSource(seed)), rows)
	return []BenchShape{
		{"count_1f", query.NewCount(f(0)), full},
		{"count_2f", query.NewCount(f(0), f(1)), full},
		{"count_4f", query.NewCount(f(0), f(1), f(2), f(3)), full},
		{"sum_1f", query.NewSum(3, f(0)), full},
		{"sum_2f", query.NewSum(3, f(0), f(1)), full},
		{"count_2f_plan", query.NewCount(f(0), f(1)), plan},
		{"sum_2f_plan", query.NewSum(3, f(0), f(1)), plan},
	}
}

// benchPlan draws a learned-grid plan's physical ranges over rows rows:
// two in three shorter than one 64-row mask word (the Fig 7 taxi mix's
// share), the rest up to a few hundred rows, with gaps of up to 2000 rows
// between them.
func benchPlan(rng *rand.Rand, rows int) [][2]int {
	var plan [][2]int
	for start := 0; start < rows; {
		length := 1 + rng.Intn(63)
		if rng.Intn(3) == 0 {
			length = 64 + rng.Intn(400)
		}
		end := min(start+length, rows)
		plan = append(plan, [2]int{start, end})
		start = end + rng.Intn(2000)
	}
	return plan
}

func rangeRows(ranges [][2]int) int {
	n := 0
	for _, r := range ranges {
		n += r[1] - r[0]
	}
	return n
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

// scanFiltered is the non-exact scan of rows [start, end) under q's
// filters (at least one, none inverted), dispatched to the AVX2 or
// portable tier (one-time CPU detection, runtime-togglable for tests).
func (s *Store) scanFiltered(q query.Query, start, end int, res *ScanResult) {
	if simdEnabled() {
		s.scanFilteredSIMD(q, start, end, res)
		return
	}
	s.scanFilteredPortable(q, start, end, res)
}

// scanFilteredPortable is the fused kernel in Go: each 64-row word ANDs
// every filter's maskWord (a dead word stops early) and is folded at once,
// so no mask buffer is needed.
func (s *Store) scanFilteredPortable(q query.Query, start, end int, res *ScanResult) {
	var agg []int64
	if q.Agg == query.Sum {
		agg = s.cols[q.AggDim]
	}
	body := start + (end-start)&^63
	var count uint64
	var sum int64
	for w := start; w < body; w += 64 {
		m := ^uint64(0)
		for _, f := range q.Filters {
			if m &= maskWord(s.cols[f.Dim][w:w+64], f.Lo, uint64(f.Hi-f.Lo)); m == 0 {
				break
			}
		}
		count += uint64(bits.OnesCount64(m))
		if agg != nil && m != 0 {
			sum += maskedSum(agg[w:w+64], m)
		}
	}
	c, sm := s.foldRows(q, agg, body, end)
	res.Count += count + c
	res.Sum += sum + sm
}

// foldRows folds rows [start, end) — the rows a kernel's vector body
// leaves — one at a time but without branching: a row's match bit is the
// AND of every filter's compare, and it gates the row's aggregate.
func (s *Store) foldRows(q query.Query, agg []int64, start, end int) (count uint64, sum int64) {
	for i := start; i < end; i++ {
		m := uint64(1)
		for _, f := range q.Filters {
			_, borrow := bits.Sub64(uint64(f.Hi-f.Lo), uint64(s.cols[f.Dim][i]-f.Lo), 0)
			m &^= borrow
		}
		count += m
		if agg != nil {
			sum += agg[i] & -int64(m)
		}
	}
	return count, sum
}
