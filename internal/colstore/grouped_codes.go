package colstore

import "math/bits"

// Group-column metadata: the value span every grouped scan sizes its
// cells from, and the byte-coded image behind the low-cardinality path.
//
// A grouped scan's first question is how wide the group column is: the
// accumulator sizes its dense cells to max-min+1 and anchors them at
// min. The store answers from a per-column cache filled on first grouped
// use (one O(n) MinMax pass), never at build time.
//
// When that span is at most maxFastGroups values, a grouped COUNT does
// not need the int64 column at all: the store also materializes
// codes[i] = value[i] - min as one byte per row, and the grouped COUNT
// kernels compare 32 code bytes per instruction against splatted key
// codes (grouped_avx2_amd64.s), accumulating one count per code. That is
// what keeps a grouped single-filter COUNT within a factor of the flat
// count kernel's memory-bound throughput: the scan reads 9 bytes per row
// (filter column + codes) instead of 16. The image is built on the first
// grouped COUNT over the column, so a column that only SUM queries group
// by never pays for it.
//
// Both are invalidated by Reorder. Codes never feed results directly —
// the accumulator translates code c back to key base+c when assembling
// its GroupedResult — and the scalar oracle never uses them, so the
// differential tests exercise this path end to end.

// groupMeta describes one column as a group key: its minimum, the
// unsigned width max-min, and — once a grouped COUNT asked, if width <
// maxFastGroups — codes[i] = col[i] - base (all < maxFastGroups).
type groupMeta struct {
	base  int64
	width uint64
	codes []byte
}

// groupMetaFor returns the cached metadata of dimension dim, computing
// it on first use and adding the byte-coded image when wantCodes is set
// and the column's span fits. The per-dimension slot is atomic:
// concurrent builders race idempotently (both compute the same values).
func (s *Store) groupMetaFor(dim int, wantCodes bool) *groupMeta {
	slot := &s.groupMeta[dim]
	gm := slot.Load()
	if gm == nil {
		lo, hi := s.MinMax(dim)
		// uint64(hi-lo) is the exact unsigned width even when the int64
		// subtraction wraps (hi >= lo, and the true width is < 2^64).
		gm = &groupMeta{base: lo, width: uint64(hi - lo)}
		slot.Store(gm)
	}
	if wantCodes && gm.codes == nil && gm.width < maxFastGroups && s.NumRows() > 0 {
		col := s.cols[dim]
		// Padded to a whole last word: the count kernels read 64 codes
		// per selection word, and a range may end inside one.
		codes := make([]byte, len(col), len(col)+64)
		for i, v := range col {
			codes[i] = byte(v - gm.base)
		}
		gm = &groupMeta{base: gm.base, width: gm.width, codes: codes}
		slot.Store(gm)
	}
	return gm
}

// codeSplat is the byte-code kernels' key operand: code c as a 32-byte
// broadcast block at codeSplat[c*32:]. Codes above a column's width
// never occur in its image, so their counts stay zero.
var codeSplat = func() (t [maxFastGroups * 32]byte) {
	for i := range t {
		t[i] = byte(i / 32)
	}
	return t
}()

// groupCountCodesPortable is the portable byte-code consumer: walk the
// set bits of the selection words and bump the matching code's count.
// Shared by every build; the dispatch wrappers route to the AVX2 kernel
// when it is compiled in and enabled.
func groupCountCodesPortable(codes []byte, sel []uint64, counts []uint64) {
	for w, m := range sel {
		for ; m != 0; m &= m - 1 {
			counts[codes[w<<6+bits.TrailingZeros64(m)]]++
		}
	}
}
