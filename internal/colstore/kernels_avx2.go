//go:build amd64 && !purego

package colstore

import (
	"math"
	"os"
	"sync/atomic"
	"unsafe"

	"repro/internal/query"
)

// Runtime dispatch for the AVX2 scan kernels. Detection runs once at
// process start: CPUID leaf 1 for AVX+OSXSAVE, XGETBV for OS-enabled
// YMM state, CPUID leaf 7 for AVX2. The TSUNAMI_PUREGO environment
// variable (any non-empty value) forces the portable kernels without a
// rebuild — the same effect as the `purego` build tag — so the fallback
// path stays testable on AVX2 machines.

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func prefetchT0(p unsafe.Pointer, bytes int)

//go:noescape
func rangeCountSumNAVX2(args *filterArg, k int, agg *int64, n int) (count uint64, sum int64)

//go:noescape
func rangeSelectNAVX2(args *filterArg, k int, sel *uint64, n int)

//go:noescape
func codedSelectAVX2(fs *codedFilter, k, off int, sel *uint64, n int)

//go:noescape
func codedRangesAVX2(fs *codedFilter, k int, ranges *Range, nr int, agg *int64) (count uint64, sum int64)

var haveAVX2 = detectAVX2()

// useSIMD gates kernel dispatch; atomic so tests and benchmarks can
// toggle it while concurrent readers scan.
var useSIMD atomic.Bool

func init() {
	useSIMD.Store(haveAVX2 && os.Getenv("TSUNAMI_PUREGO") == "")
}

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM state on context
	// switch. Without this, executing VEX-256 faults.
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}

// SIMDAvailable reports whether the AVX2 kernels are compiled in and
// supported by this CPU (independent of the current dispatch setting).
func SIMDAvailable() bool { return haveAVX2 }

// SetSIMD enables or disables AVX2 kernel dispatch at runtime and
// returns the previous setting. Enabling is a no-op when the CPU lacks
// AVX2. Used by the differential tests and the bench harness to measure
// the portable path on SIMD-capable machines.
func SetSIMD(on bool) bool {
	prev := useSIMD.Load()
	useSIMD.Store(on && haveAVX2)
	return prev
}

// KernelName identifies the kernel tier ScanRange currently dispatches
// to: "avx2" or "portable".
func KernelName() string {
	if useSIMD.Load() {
		return "avx2"
	}
	return "portable"
}

func simdEnabled() bool { return useSIMD.Load() }

// prefetchRows is how much of a range prefetch asks for: the first 64
// rows (one 512-byte run of lines) of each int64 column, or the lines
// holding them of each byte image. A planned range is typically a few
// dozen rows, and a longer one is covered past its head by the kernels'
// own block prefetch and the hardware streamer.
const prefetchRows = 64

// prefetch issues PREFETCHT0 for the head of rows [start, end) of every
// column a non-exact scan of the range reads: the filters' byte images
// for a coded scan, else their int64 columns, and the SUM column. A plan
// walker calls it for a range a few positions ahead of the one it scans,
// so the line fills of short ranges overlap instead of stalling one after
// another. It is a hint: it changes no result, and a non-exact scan of
// the range reads the same lines.
func (sc *prepared) prefetch(start, end int) {
	s, q := sc.s, sc.q
	n := min(end, s.NumRows(), start+prefetchRows) - start
	if start < 0 || n <= 0 || sc.kind == scanEmpty {
		return
	}
	if sc.kind == scanCoded {
		// n+63 bytes: the n codes may straddle a line boundary.
		for _, f := range sc.coded[:sc.n] {
			prefetchT0(unsafe.Pointer(&f.codes[start]), n+63)
		}
	} else {
		for _, f := range q.Filters {
			prefetchT0(unsafe.Pointer(&s.cols[f.Dim][start]), n*8)
		}
	}
	if q.Agg == query.Sum {
		prefetchT0(unsafe.Pointer(&s.cols[q.AggDim][start]), n*8)
	}
}

// filterArg is one filter as the AVX2 kernels read it: col is the
// filter's column at the range's first row, lo and width are biased by
// 2^63 for the signed compare (see kernels_avx2_amd64.s).
type filterArg struct {
	col       *int64
	lo, width int64
}

// filterArgs appends the kernels' arguments for filters over a range
// starting at row start. Up to 8 fit the callers' stack arrays, so a
// scan allocates nothing.
func (s *Store) filterArgs(args []filterArg, filters []query.Filter, start int) []filterArg {
	for _, f := range filters {
		args = append(args, filterArg{&s.cols[f.Dim][start], f.Lo ^ math.MinInt64, (f.Hi - f.Lo) ^ math.MinInt64})
	}
	return args
}

// scanFilteredSIMD is the AVX2 fused kernel: every filter compared in
// registers, 16 then 4 rows at a time, and folded with no mask written;
// the last 0-3 rows are folded through foldWord.
func (s *Store) scanFilteredSIMD(q query.Query, start, end int, res *ScanResult) {
	var agg []int64
	if q.Agg == query.Sum {
		agg = s.cols[q.AggDim]
	}
	body := start + (end-start)&^3
	var count uint64
	var sum int64
	if body > start {
		var buf [8]filterArg
		args := s.filterArgs(buf[:0], q.Filters, start)
		var aggp *int64
		if agg != nil {
			aggp = &agg[start]
		}
		count, sum = rangeCountSumNAVX2(&args[0], len(args), aggp, body-start)
	}
	if body < end {
		c, sm := s.foldWord(q.Filters, agg, body, end)
		count += c
		sum += sm
	}
	res.Count += count
	res.Sum += sum
}

// selectWordsSIMD is the AVX2 selection stage: rangeSelectNAVX2 writes
// the words of all but the range's last 0-3 rows, which selectWord adds
// to the open word.
func (s *Store) selectWordsSIMD(filters []query.Filter, start, end int, sel []uint64) {
	body := start + (end-start)&^3
	if body > start {
		var buf [8]filterArg
		args := s.filterArgs(buf[:0], filters, start)
		rangeSelectNAVX2(&args[0], len(args), &sel[0], body-start)
	}
	if body < end {
		w, shift := (body-start)>>6, (body-start)&63
		if shift == 0 {
			sel[w] = 0
		}
		sel[w] |= s.selectWord(filters, body, end) << shift
	}
}

// selectCodedSIMD is the AVX2 coded selection stage: one word per 64
// rows, straight from the kernel's masks, the last one partial.
func selectCodedSIMD(fs []codedFilter, start, end int, sel []uint64) {
	codedSelectAVX2(&fs[0], len(fs), start, &sel[0], end-start)
}

// codedRangesSIMD walks a plan's ranges in one AVX2 call: per range, the
// prefetch of the range prefetchAhead on and its coded count and sum,
// the range's last block masked inside the kernel.
func codedRangesSIMD(fs []codedFilter, ranges []Range, agg []int64) (uint64, int64) {
	var aggp *int64
	if agg != nil {
		aggp = &agg[0]
	}
	return codedRangesAVX2(&fs[0], len(fs), &ranges[0], len(ranges), aggp)
}
