//go:build !amd64 || purego

package colstore

// Portable build: the grouped pipeline's mask-word operations always run
// on the portable helpers.

func maskWordsInto(col []int64, out []uint64, nw int, lo int64, width uint64) uint64 {
	return maskWordsPortable(col, out, nw, lo, width)
}

func maskWordsAndInto(col []int64, out []uint64, nw int, lo int64, width uint64) uint64 {
	return maskWordsAndPortable(col, out, nw, lo, width)
}

func groupCountCodes(codes []byte, sel []uint64, counts []uint64, n int) {
	groupCountCodesPortable(codes, sel, counts)
}

// groupScanBlockOneFilterCodes has no fused portable form; callers fall
// back to mask words plus groupCountCodes.
func groupScanBlockOneFilterCodes(col []int64, codes []byte, lo int64, width uint64, counts []uint64, n int) bool {
	return false
}
