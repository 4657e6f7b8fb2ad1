package colstore

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"

	"repro/internal/query"
)

// Column spans and byte images.
//
// A scan asks two things of a column that the int64 values answer only
// by a pass: how wide its value span is, and — when the span fits a
// byte — which rows hold which code. The store answers both from a
// per-column cache filled on first use, never at build time: the span by
// one O(n) MinMax pass, at most once per column and store; the image
// codes[i] = value[i] - min, one byte per row, when a scan that can read
// it first asks. Two scans can:
//
//   - A query whose every filter is on a column spanning at most 256
//     values (Prepare). Each filter becomes a byte range on its column's
//     image, and the filter kernels compare 32 codes per AVX2 instruction
//     instead of 4 int64 values (kernels_avx2_amd64.s): the scan was
//     compute-bound on the int64 compares, not memory-bound.
//   - A grouped COUNT over a column of at most maxFastGroups values: the
//     count kernels compare 32 group codes against splatted key codes
//     (grouped_avx2_amd64.s).
//
// A query with one filter on a wider column keeps the int64 kernels and
// builds no image. The image changes no stored format and no result; it
// costs one byte per row of every coded column, and BytesTouched stays
// the planned int64 figure. Both span and image are dropped by a Gather
// into a reused store (the only write to a store's columns); every other
// store starts with empty slots. Codes never feed results directly — a
// filter is translated onto them (colMeta.code) and a grouped count's
// code c back to key base+c — and the scalar oracle never uses them, so
// the differential tests exercise these paths end to end.

const (
	// maxCodedWidth bounds the byte image: a column whose max-min is at
	// most this (256 values) gets one.
	maxCodedWidth = 255
	// codePad is the image's padding past its last row: the kernels read
	// a range's last 64-row block whole and mask off the rows past it.
	codePad = 64
	// maxCodedFilters is how many filters a coded scan carries; a query
	// with more scans its int64 columns.
	maxCodedFilters = 8
)

// useCoded gates the coded dispatch; atomic so tests and benchmarks can
// toggle it while concurrent readers scan.
var useCoded atomic.Bool

func init() { useCoded.Store(true) }

// SetCoded enables or disables the byte-image filter kernels and returns
// the previous setting. Disabled, every query scans its int64 columns:
// the benchmarks and the bench harness measure the coded kernels against
// the int64 ones on the same data this way.
func SetCoded(on bool) bool { return useCoded.Swap(on) }

// colMeta describes one column: its minimum, the unsigned width max-min,
// and — once a scan that can read it asked, if width <= maxCodedWidth —
// codes[i] = col[i] - base, padded by codePad bytes.
type colMeta struct {
	base  int64
	width uint64
	codes []byte
}

// metaFor returns the cached metadata of dimension dim, computing it on
// first use and adding the byte image when wantCodes is set and the
// column's span fits. The per-dimension slot is atomic: concurrent
// builders race idempotently (both compute the same values).
func (s *Store) metaFor(dim int, wantCodes bool) *colMeta {
	slot := &s.meta[dim]
	m := slot.Load()
	if m == nil {
		lo, hi := s.MinMax(dim)
		// uint64(hi-lo) is the exact unsigned width even when the int64
		// subtraction wraps (hi >= lo, and the true width is < 2^64).
		m = &colMeta{base: lo, width: uint64(hi - lo)}
		slot.Store(m)
	}
	if wantCodes && m.codes == nil && m.width <= maxCodedWidth && s.NumRows() > 0 {
		col := s.cols[dim]
		codes := make([]byte, len(col), len(col)+codePad)
		for i, v := range col {
			codes[i] = byte(v - m.base)
		}
		m = &colMeta{base: m.base, width: m.width, codes: codes}
		slot.Store(m)
	}
	return m
}

// code translates filter f onto the column's image: codes c with
// uint8(c-lo) <= width match. all reports that f covers the whole span
// (it drops out), none that it misses it or is inverted (the query
// matches nothing on this store). Bounds are compared before anything is
// subtracted, so int64 extremes cannot overflow.
func (m *colMeta) code(f query.Filter) (lo, width uint8, all, none bool) {
	top := m.base + int64(m.width) // the column's max
	if f.Lo > f.Hi || f.Hi < m.base || f.Lo > top {
		return 0, 0, false, true
	}
	clo, chi := uint64(0), m.width
	if f.Lo > m.base {
		clo = uint64(f.Lo - m.base)
	}
	if f.Hi < top {
		chi = uint64(f.Hi - m.base)
	}
	return uint8(clo), uint8(chi - clo), clo == 0 && chi == m.width, false
}

// codedFilter is one filter as the coded kernels read it: its column's
// image (row 0 at codes[0]) and the byte range [lo, lo+width] of codes
// that match. The AVX2 kernels read the image pointer at offset 0 and lo
// and width at 24 and 25.
type codedFilter struct {
	codes     []byte
	lo, width uint8
}

// Bytes-per-lane constants of the portable coded kernel.
const (
	lanes1 = 0x0101010101010101
	lanesH = 0x8080808080808080
)

// codedMask8 is the portable coded compare of 8 codes at once (SWAR):
// the high bit of byte k of the result is set iff byte k of x matches
// the splatted range [lo, lo+width] (lo and width times lanes1); the
// other bits are clear. Per byte, d = x-lo and the borrow out of
// width-d (set iff d > width) are computed without carries crossing
// bytes.
func codedMask8(x, lo, width uint64) uint64 {
	d := ((x | lanesH) - (lo &^ lanesH)) ^ ((x ^ ^lo) & lanesH)
	r := ((width | lanesH) - (d &^ lanesH)) ^ ((width ^ ^d) & lanesH)
	return ^((^width & d) | (^(width ^ d) & r)) & lanesH
}

// codedWord is the portable coded kernel's step: the selection word of
// the at most 64 rows [start, end) under fs (at least one filter), bit k
// for row start+k. The images are padded, so it reads 64 codes whole
// and masks off the rows past end.
func codedWord(fs []codedFilter, start, end int) uint64 {
	m := ^uint64(0) >> (64 - (end - start))
	for _, f := range fs {
		lo, width := uint64(f.lo)*lanes1, uint64(f.width)*lanes1
		c := f.codes[start : start+64]
		var w uint64
		for k := 0; k < 64; k += 8 {
			h := codedMask8(binary.LittleEndian.Uint64(c[k:]), lo, width)
			// Gather the 8 high bits into one byte: bit 8i+7 lands on 56+i.
			w |= ((h >> 7) * 0x0102040810204080 >> 56) << k
		}
		if m &= w; m == 0 {
			break
		}
	}
	return m
}

// scanCodedPortable is the portable coded count/sum of rows [start,
// end): each 64-row word is selected on the images and folded at once.
func scanCodedPortable(fs []codedFilter, agg []int64, start, end int) (count uint64, sum int64) {
	for w := start; w < end; w += 64 {
		we := min(w+64, end)
		m := codedWord(fs, w, we)
		count += uint64(bits.OnesCount64(m))
		if agg != nil && m != 0 {
			sum += maskedSum(agg[w:we], m)
		}
	}
	return count, sum
}

// selectCodedPortable writes codedWord's word for every 64 rows of the
// range, and for its partial last word.
func selectCodedPortable(fs []codedFilter, start, end int, sel []uint64) {
	for w := 0; start+w<<6 < end; w++ {
		r := start + w<<6
		sel[w] = codedWord(fs, r, min(r+64, end))
	}
}

// codeSplat is the grouped byte-code kernels' key operand: code c as a
// 32-byte broadcast block at codeSplat[c*32:]. Codes above a column's
// width never occur in its image, so their counts stay zero.
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
