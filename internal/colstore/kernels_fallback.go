//go:build !amd64 || purego

package colstore

import "repro/internal/query"

// Portable build: no SIMD kernels are compiled in (non-amd64 targets, or
// the `purego` build tag used by CI to keep the fallback path covered on
// AVX2 machines). ScanRange always dispatches to the branch-free portable
// kernels; the toggles are inert.

// SIMDAvailable reports whether SIMD kernels are compiled in and
// supported by this CPU. Always false in this build.
func SIMDAvailable() bool { return false }

// SetSIMD is a no-op in this build; it reports false (SIMD was not and
// cannot be enabled).
func SetSIMD(on bool) bool { return false }

// KernelName identifies the kernel tier ScanRange dispatches to.
func KernelName() string { return "portable" }

func simdEnabled() bool { return false }

// prefetch is a no-op in this build: there is no prefetch instruction to
// issue, and the hint changes no result.
func (sc *prepared) prefetch(start, end int) {}

func (s *Store) scanFilteredSIMD(q query.Query, start, end int, res *ScanResult) {
	s.scanFilteredPortable(q, start, end, res)
}

func (s *Store) selectWordsSIMD(filters []query.Filter, start, end int, sel []uint64) {
	s.selectWordsPortable(filters, start, end, sel)
}

func selectCodedSIMD(fs []codedFilter, start, end int, sel []uint64) {
	selectCodedPortable(fs, start, end, sel)
}

func codedRangesSIMD(fs []codedFilter, ranges []Range, agg []int64) (uint64, int64) {
	return codedRangesPortable(fs, ranges, agg)
}
