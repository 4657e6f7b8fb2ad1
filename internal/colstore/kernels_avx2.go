//go:build amd64 && !purego

package colstore

import (
	"math/bits"
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
func rangeCountAVX2(vals *int64, n int, lo int64, width uint64) uint64

//go:noescape
func rangeCountSumAVX2(col, agg *int64, n int, lo int64, width uint64) (count uint64, sum int64)

//go:noescape
func maskWordsAVX2(vals *int64, out *uint64, nWords int, lo int64, width uint64) uint64

//go:noescape
func maskWordsAndAVX2(vals *int64, out *uint64, nWords int, lo int64, width uint64) uint64

//go:noescape
func maskedSumAVX2(agg *int64, mask *uint64, nWords int) int64

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

// scanOneFilterSIMD is the AVX2 single-filter kernel: one fused pass,
// 4 lanes per compare, no mask materialization. The asm loops prefetch
// ~1KiB ahead of every load stream.
func (s *Store) scanOneFilterSIMD(q query.Query, start, end int, res *ScanResult) {
	f := q.Filters[0]
	col := s.cols[f.Dim][start:end]
	width := uint64(f.Hi - f.Lo)
	n := len(col)
	nw := n &^ 63
	if q.Agg == query.Count {
		var count uint64
		if nw > 0 {
			count = rangeCountAVX2(&col[0], nw, f.Lo, width)
		}
		for _, v := range col[nw:] {
			if v >= f.Lo && v <= f.Hi {
				count++
			}
		}
		res.Count += count
		return
	}
	agg := s.cols[q.AggDim][start:end]
	var count uint64
	var sum int64
	if nw > 0 {
		count, sum = rangeCountSumAVX2(&col[0], &agg[0], nw, f.Lo, width)
	}
	for i := nw; i < n; i++ {
		if v := col[i]; v >= f.Lo && v <= f.Hi {
			count++
			sum += agg[i]
		}
	}
	res.Count += count
	res.Sum += sum
}

// scanManyFiltersSIMD mirrors the portable N-filter kernel block loop,
// with the per-word work in AVX2: the first filter writes each block's
// masks, later filters AND into them (skipping dead words inside the
// asm), and SUM reads the combined mask via the vectorized masked
// accumulator. Before computing a block it software-prefetches the next
// block of the first filter column (and the aggregate column for SUM) —
// the streams the block loop is guaranteed to touch next — so line
// fills overlap with the current block's compute.
func (s *Store) scanManyFiltersSIMD(q query.Query, start, end int, res *ScanResult) {
	var mask [blockWords]uint64
	var agg []int64
	doSum := q.Agg == query.Sum
	if doSum {
		agg = s.cols[q.AggDim][start:end]
	}
	col0 := s.cols[q.Filters[0].Dim]
	n := end - start
	count := 0
	var sum int64
	for b0 := 0; b0 < n; b0 += blockRows {
		bn := n - b0
		if bn > blockRows {
			bn = blockRows
		}
		if next := b0 + blockRows; next < n {
			nn := n - next
			if nn > blockRows {
				nn = blockRows
			}
			prefetchT0(&col0[start+next], nn)
			if doSum {
				prefetchT0(&agg[next], nn)
			}
		}
		nw := bn >> 6
		var any uint64
		if nw > 0 {
			for fi, f := range q.Filters {
				colp := &s.cols[f.Dim][start+b0]
				width := uint64(f.Hi - f.Lo)
				if fi == 0 {
					any = maskWordsAVX2(colp, &mask[0], nw, f.Lo, width)
				} else {
					any = maskWordsAndAVX2(colp, &mask[0], nw, f.Lo, width)
				}
				if any == 0 {
					break
				}
			}
		}
		if any != 0 {
			for w := 0; w < nw; w++ {
				count += bits.OnesCount64(mask[w])
			}
			if doSum {
				sum += maskedSumAVX2(&agg[b0], &mask[0], nw)
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
