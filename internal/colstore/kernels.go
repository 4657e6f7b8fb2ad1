package colstore

import (
	"math/bits"
	"math/rand"

	"repro/internal/query"
)

// The plan kernel.
//
// A flat plan is scanned by one kernel call, whatever its filters: for
// each 64-row block of each non-exact range, every filter produces a
// match word from its own lane (codes.go) — the range of lane values it
// matches, compared by the unsigned-subtract trick (v matches [lo,
// lo+width] iff v-lo <= width in the lane's unsigned arithmetic, so an
// out-of-range v always lands above the width) — and the words are
// ANDed. The block is then folded: COUNT by the word's popcount, SUM by
// adding the aggregate under it, and the rows past a range's end are
// masked off in the word. An exact range counts its rows and, for SUM,
// adds the aggregate under all-ones words. The grouped scan's selection
// stage is the same kernel with "store the word" in place of "fold it"
// (selectLanes), over one range.
//
// On amd64 with AVX2 (detected once at startup, see kernels_avx2.go) the
// kernel is hand-written assembly that walks the whole plan in one call
// and prefetches each range's head two ranges ahead: 32, 16, 8 or 4
// values per instruction on the 1-, 2-, 4- and 8-byte lanes, loading only
// the vectors that hold a block's rows. The portable kernel in this file
// is the universal fallback (`purego` build tag, non-amd64, old CPUs, or
// TSUNAMI_PUREGO=1): one word step per lane (laneFilter.word: SWAR on 8
// codes per uint64 for the 1-byte lane, a branch-free compare loop for
// the others). Both are the middle tier of the three-way differential
// test SIMD == portable == scalar, whose oracle is ScanRangeScalar's
// original row-at-a-time loop.

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
// cost per range rather than per row decides. The domain picks the
// filter columns' lane (prepare): up to 256 values read 1 byte a value,
// 65 536 2 bytes, 2^32 4 bytes, and a wider one the int64 column.
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

// maskedSum accumulates vals[k] for every set bit k without branching:
// a cleared bit contributes vals[k] & 0.
func maskedSum(vals []int64, m uint64) int64 {
	var sum int64
	for k, v := range vals {
		sum += v & -int64((m>>(k&63))&1)
	}
	return sum
}

// laneWord is the portable kernel's word step: the selection word of the
// at most 64 rows [start, end) under fs, bit k for row start+k, the bits
// past end clear; a dead word stops early.
func laneWord(fs []laneFilter, start, end int) uint64 {
	m := ^uint64(0) >> (64 - (end - start))
	for i := 0; i < len(fs) && m != 0; i++ {
		m &= fs[i].word(start, end)
	}
	return m
}

// laneRanges counts the rows of ranges that match fs, and sums agg over
// them when agg is non-nil: an exact range counts every row, the others
// are compared on the filters' lanes. A range is clamped to the store's
// rows first, and an empty one scans nothing.
func laneRanges(fs []laneFilter, ranges []Range, rows int, agg []int64) (uint64, int64) {
	if simdEnabled() {
		return laneRangesSIMD(fs, ranges, rows, agg)
	}
	return laneRangesPortable(fs, ranges, rows, agg)
}

func laneRangesPortable(fs []laneFilter, ranges []Range, rows int, agg []int64) (count uint64, sum int64) {
	for _, r := range ranges {
		rfs := fs
		if r.Exact {
			rfs = nil
		}
		for w, end := max(r.Start, 0), min(r.End, rows); w < end; w += 64 {
			we := min(w+64, end)
			m := laneWord(rfs, w, we)
			count += uint64(bits.OnesCount64(m))
			if agg != nil && m != 0 {
				sum += maskedSum(agg[w:we], m)
			}
		}
	}
	return count, sum
}

// selectLanes is the grouped scan's selection stage: it writes the
// selection of rows [start, end) (inside the store) under fs to sel, bit j of sel[w] for row start+64w+j, with the bits
// of the last word past end clear. sel holds at least
// ceil((end-start)/64) words.
func selectLanes(fs []laneFilter, start, end int, sel []uint64) {
	if simdEnabled() {
		selectLanesSIMD(fs, start, end, sel)
		return
	}
	selectLanesPortable(fs, start, end, sel)
}

func selectLanesPortable(fs []laneFilter, start, end int, sel []uint64) {
	for w := 0; start+w<<6 < end; w++ {
		r := start + w<<6
		sel[w] = laneWord(fs, r, min(r+64, end))
	}
}
