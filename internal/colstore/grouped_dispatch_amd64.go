//go:build amd64 && !purego

package colstore

// Mask-word dispatch for the grouped pipeline: route to the AVX2 mask
// kernels when dispatch is enabled, otherwise to the portable word
// helpers. Both tiers have the contract maskBlockInto relies on:
// write-then-AND semantics with dead-word skip, returning the OR of the
// produced words.

func maskWordsInto(col []int64, out []uint64, nw int, lo int64, width uint64) uint64 {
	if simdEnabled() {
		return maskWordsAVX2(&col[0], &out[0], nw, lo, width)
	}
	return maskWordsPortable(col, out, nw, lo, width)
}

func maskWordsAndInto(col []int64, out []uint64, nw int, lo int64, width uint64) uint64 {
	if simdEnabled() {
		return maskWordsAndAVX2(&col[0], &out[0], nw, lo, width)
	}
	return maskWordsAndPortable(col, out, nw, lo, width)
}

// Byte-code grouped-count kernels (grouped_avx2_amd64.s). Both consume
// 8 splatted key codes per call; the wrappers batch wider code windows
// (n codes, counts padded to a multiple of 8).

//go:noescape
func groupCountCodesAVX2(codes *byte, sel *uint64, nWords int, splat *byte, counts *uint64)

//go:noescape
func groupScanOneFilterCodesAVX2(col *int64, codes *byte, n int, lo int64, width uint64, splat *byte, counts *uint64)

func groupCountCodes(codes []byte, sel []uint64, counts []uint64, n int) {
	if simdEnabled() {
		for b := 0; b < n; b += 8 {
			groupCountCodesAVX2(&codes[0], &sel[0], len(sel), &codeSplat[b*32], &counts[b])
		}
		return
	}
	groupCountCodesPortable(codes, sel, counts)
}

// groupScanBlockOneFilterCodes runs the fused single-filter grouped
// COUNT over one block when the AVX2 tier is enabled, reporting whether
// it consumed the block; on false the caller falls back to mask words.
func groupScanBlockOneFilterCodes(col []int64, codes []byte, lo int64, width uint64, counts []uint64, n int) bool {
	if !simdEnabled() {
		return false
	}
	for b := 0; b < n; b += 8 {
		groupScanOneFilterCodesAVX2(&col[0], &codes[0], len(col), lo, width, &codeSplat[b*32], &counts[b])
	}
	return true
}
