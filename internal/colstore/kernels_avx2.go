//go:build amd64 && !purego

package colstore

import (
	"math"
	"os"
	"sync/atomic"

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
func prefetchT0(p *int64, rows int)

//go:noescape
func rangeCountSumNAVX2(args *filterArg, k int, agg *int64, n int) (count uint64, sum int64)

//go:noescape
func rangeSelectNAVX2(args *filterArg, k int, sel *uint64, n int)

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

// prefetchRows is how much of a range Prefetch asks for: the first 64
// rows (one 512-byte run of lines) of each column. A planned range is
// typically a few dozen rows, and a longer one is covered past its head
// by the kernels' own block prefetch and the hardware streamer.
const prefetchRows = 64

// Prefetch issues PREFETCHT0 for the head of rows [start, end) of every
// column a non-exact scan of q reads: its filter columns, and the SUM
// column. A plan walker calls it for a range a few positions ahead of the
// one it scans, so the line fills of short ranges overlap instead of
// stalling one after another. It is a hint: it changes no result, and a
// non-exact scan of the range reads the same lines.
func (s *Store) Prefetch(q query.Query, start, end int) {
	n := min(end, s.NumRows(), start+prefetchRows) - start
	if start < 0 || n <= 0 {
		return
	}
	for _, f := range q.Filters {
		prefetchT0(&s.cols[f.Dim][start], n)
	}
	if q.Agg == query.Sum {
		prefetchT0(&s.cols[q.AggDim][start], n)
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
