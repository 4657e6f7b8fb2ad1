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
// words, the last one partial, and folds each by popcount and masked
// sum. The AVX2 kernel leaves its last 0-3 rows to that same word step,
// and both are the middle tier of the three-way differential test
// SIMD == portable == scalar, whose oracle is ScanRangeScalar's original
// row-at-a-time loop.
//
// The grouped scan's selection stage (selectWords) is the same kernel
// with "write the selection word" in place of "fold it": the AVX2 tier
// writes a word per 64 rows compared in registers, the portable tier
// writes selectWord's words, and a range's partial last word is built the
// same way, so a 20-row range runs vectorized too.
//
// When every filter is on a column of at most 256 values, the filters
// are compared on the columns' byte images instead (codes.go, prepare):
// a filter is a byte range, 32 codes are compared per AVX2 instruction,
// and each 64-row block becomes one match word — counted, summed under,
// or stored as a selection word — with the rows past a range's end
// masked off inside the kernel. The portable tier compares 8 codes per
// uint64 (codedWord). A coded flat query walks a whole plan's ranges in
// one call (codedRanges), so a plan of hundreds of short ranges pays no
// Go call per range.

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
// store of rows rows holding uniform [0, domain) values in at least four
// columns, with ~50% selectivity per filter — the worst case for a
// branchy scalar scan, so the kernel speedup these shapes measure is the
// floor. Most scan one full-table range; the _plan shapes scan a
// learned-grid plan's list of short ranges (benchPlan), where a kernel's
// cost per range rather than per row decides. A domain of at most 256
// values makes every filter column a coded one (prepare).
func KernelBenchShapes(rows int, domain, seed int64) []BenchShape {
	f := func(dim int) query.Filter { return query.Filter{Dim: dim, Lo: domain / 4, Hi: domain * 3 / 4} }
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

// maskWord evaluates the range predicate [lo, lo+width] over at most 64
// values and returns the selection bitmask (bit k set iff vals[k] matches).
// width is uint64(hi-lo); see the package comment for why the unsigned
// compare is exact over the full int64 domain.
func maskWord(vals []int64, lo int64, width uint64) uint64 {
	var m uint64
	for k, v := range vals {
		_, borrow := bits.Sub64(width, uint64(v-lo), 0)
		m |= (borrow ^ 1) << (k & 63)
	}
	return m
}

// maskedSum accumulates vals[k] for every set bit k without branching:
// a cleared bit contributes vals[k] & 0.
func maskedSum(vals []int64, m uint64) int64 {
	var sum int64
	for k, v := range vals {
		sum += v & -int64((m>>(k&63))&1)
	}
	return sum
}

// selectWord is the portable kernel's step: the selection word of the at
// most 64 rows [start, end), the AND of every filter's maskWord (a dead
// word stops early). Bit k is row start+k.
func (s *Store) selectWord(filters []query.Filter, start, end int) uint64 {
	m := ^uint64(0)
	for _, f := range filters {
		if m &= maskWord(s.cols[f.Dim][start:end], f.Lo, uint64(f.Hi-f.Lo)); m == 0 {
			break
		}
	}
	return m
}

// foldWord folds the at most 64 rows [start, end) under filters: COUNT by
// popcount of their selection word, SUM (agg non-nil) by masked sum.
func (s *Store) foldWord(filters []query.Filter, agg []int64, start, end int) (count uint64, sum int64) {
	m := s.selectWord(filters, start, end)
	if agg != nil && m != 0 {
		sum = maskedSum(agg[start:end], m)
	}
	return uint64(bits.OnesCount64(m)), sum
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

// scanFilteredPortable is the fused kernel in Go: each 64-row word, and
// the last partial one, is selected and folded at once, so no mask
// buffer is needed.
func (s *Store) scanFilteredPortable(q query.Query, start, end int, res *ScanResult) {
	var agg []int64
	if q.Agg == query.Sum {
		agg = s.cols[q.AggDim]
	}
	var count uint64
	var sum int64
	for w := start; w < end; w += 64 {
		c, sm := s.foldWord(q.Filters, agg, w, min(w+64, end))
		count += c
		sum += sm
	}
	res.Count += count
	res.Sum += sum
}

// selectWords is the grouped scan's selection stage: it writes the
// selection of rows [start, end) under filters (at least one, none
// inverted) to sel, bit j of sel[w] for row start+64w+j, with the bits of
// the last word past end clear. sel holds at least ceil((end-start)/64)
// words. Like scanFiltered it is one kernel for any filter count,
// dispatched to the AVX2 or portable tier.
func (s *Store) selectWords(filters []query.Filter, start, end int, sel []uint64) {
	if simdEnabled() {
		s.selectWordsSIMD(filters, start, end, sel)
		return
	}
	s.selectWordsPortable(filters, start, end, sel)
}

// selectWordsPortable writes selectWord's word for every 64 rows of the
// range, and for its partial last word.
func (s *Store) selectWordsPortable(filters []query.Filter, start, end int, sel []uint64) {
	for w := 0; start+w<<6 < end; w++ {
		r := start + w<<6
		sel[w] = s.selectWord(filters, r, min(r+64, end))
	}
}

// scanCoded is scanFiltered on the byte images: the non-exact scan of
// rows [start, end) under fs (at least one coded filter), a plan of one
// range for codedRanges.
func (s *Store) scanCoded(fs []codedFilter, q query.Query, start, end int, res *ScanResult) {
	var agg []int64
	if q.Agg == query.Sum {
		agg = s.cols[q.AggDim]
	}
	one := [1]Range{{Start: start, End: end}}
	count, sum := codedRanges(fs, one[:], agg)
	res.Count += count
	res.Sum += sum
}

// selectCoded is selectWords on the byte images.
func selectCoded(fs []codedFilter, start, end int, sel []uint64) {
	if simdEnabled() {
		selectCodedSIMD(fs, start, end, sel)
		return
	}
	selectCodedPortable(fs, start, end, sel)
}

// codedRanges counts the rows of ranges (each non-empty and inside the
// store) that match fs (at least one coded filter), and sums agg over
// them when agg is non-nil: an exact range counts every row, the others
// are compared on the images.
func codedRanges(fs []codedFilter, ranges []Range, agg []int64) (uint64, int64) {
	if simdEnabled() {
		return codedRangesSIMD(fs, ranges, agg)
	}
	return codedRangesPortable(fs, ranges, agg)
}

func codedRangesPortable(fs []codedFilter, ranges []Range, agg []int64) (count uint64, sum int64) {
	for _, r := range ranges {
		if !r.Exact {
			c, sm := scanCodedPortable(fs, agg, r.Start, r.End)
			count, sum = count+c, sum+sm
			continue
		}
		count += uint64(r.End - r.Start)
		if agg != nil {
			for _, v := range agg[r.Start:r.End] {
				sum += v
			}
		}
	}
	return count, sum
}
