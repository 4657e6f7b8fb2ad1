//go:build amd64 && !purego

package colstore

import (
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
func laneRangesAVX2(fs *laneFilter, k int, ranges *Range, nr, rows int, agg *int64, sel *uint64) (count uint64, sum int64)

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

// prefetchRows is how much of a range prefetch asks for: the lines
// holding its first 64 rows in each column it reads. A planned range is
// typically a few dozen rows, and a longer one is covered past its head
// by the kernel's own block prefetch and the hardware streamer.
const prefetchRows = 64

// prefetch issues PREFETCHT0 for the head of rows [start, end) of every
// column a non-exact scan of the range reads: each filter's lane and the
// SUM column. The grouped plan walker calls it for a range a few
// positions ahead of the one it scans, so the line fills of short ranges
// overlap instead of stalling one after another (the flat plan kernel
// does the same inside its one call). It is a hint: it changes no
// result, and a non-exact scan of the range reads the same lines.
func (sc *prepared) prefetch(start, end int) {
	s, q := sc.s, sc.q
	n := min(end, s.NumRows(), start+prefetchRows) - start
	if start < 0 || n <= 0 || sc.empty {
		return
	}
	fs := sc.lanes()
	for i := range fs {
		// n<<shift+63 bytes: the values may straddle a line boundary.
		prefetchT0(unsafe.Pointer(&fs[i].vals[start<<fs[i].shift]), n<<fs[i].shift+63)
	}
	if q.Agg == query.Sum {
		prefetchT0(unsafe.Pointer(&s.cols[q.AggDim][start]), n*8)
	}
}

// laneRangesSIMD walks a plan's ranges in one AVX2 call.
func laneRangesSIMD(fs []laneFilter, ranges []Range, rows int, agg []int64) (uint64, int64) {
	if len(ranges) == 0 {
		return 0, 0
	}
	var aggp *int64
	if agg != nil {
		aggp = unsafe.SliceData(agg)
	}
	return laneRangesAVX2(unsafe.SliceData(fs), len(fs), &ranges[0], len(ranges), rows, aggp, nil)
}

// selectLanesSIMD is the AVX2 selection stage: the plan kernel over the
// one range, storing each block's word.
func selectLanesSIMD(fs []laneFilter, start, end int, sel []uint64) {
	one := [1]Range{{Start: start, End: end}}
	laneRangesAVX2(unsafe.SliceData(fs), len(fs), &one[0], 1, end, nil, &sel[0])
}
