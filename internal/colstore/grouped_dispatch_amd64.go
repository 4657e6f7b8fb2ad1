//go:build amd64 && !purego

package colstore

// Byte-code grouped-count kernel (grouped_avx2_amd64.s). It consumes 8
// splatted key codes per call; the wrapper batches wider code windows
// (n codes, counts padded to a multiple of 8).

//go:noescape
func groupCountCodesAVX2(codes *byte, sel *uint64, nWords int, splat *byte, counts *uint64)

func groupCountCodes(codes []byte, sel []uint64, counts []uint64, n int) {
	if simdEnabled() {
		for b := 0; b < n; b += 8 {
			groupCountCodesAVX2(&codes[0], &sel[0], len(sel), &codeSplat[b*32], &counts[b])
		}
		return
	}
	groupCountCodesPortable(codes, sel, counts)
}
