package colstore

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/query"
)

// Column spans and lanes.
//
// A scan asks two things of a column that the int64 values answer only
// by a pass: how wide its value span is, and which narrow integers hold
// its values. The store answers both from a per-column cache filled on
// first use, never at build time: the span by one O(n) MinMax pass, at
// most once per column and store; the column's image when a scan that
// reads it first asks.
//
// Every filter column has a lane: the narrowest of 1, 2 or 4 bytes that
// holds value-min over the column's span, or the int64 column itself (8
// bytes) when the span is wider than 32 bits. A 1-, 2- or 4-byte lane is
// read from the column's image, img[i] = value[i] - min, little-endian
// and padded by codePad bytes. prepare translates each filter onto its
// column's lane, and one kernel compares every filter of a block of 64
// rows on its own lane — 32, 16, 8 or 4 values per AVX2 instruction
// (kernels_avx2_amd64.s) — so a filter moves as few bytes a row as its
// column's span allows. A grouped COUNT over a column of at most
// maxFastGroups values also reads its 1-byte image: the count kernels
// compare 32 group codes against splatted key codes
// (grouped_avx2_amd64.s).
//
// The images change no stored format and no result; they cost 1, 2 or 4
// bytes a row of every column a scan filtered on, and BytesTouched stays
// the planned int64 figure. Both span and image are dropped by a Gather
// into a reused store (the only write to a store's columns); every other
// store starts with empty slots. Lane values never feed results directly
// — a filter is translated onto them (Store.lane) and a grouped
// count's code c back to key base+c — and the scalar oracle never uses
// them, so the differential tests exercise these paths end to end.

const (
	// codePad is an image's padding in bytes past its last row: the
	// kernels read a block's last vector whole, and the portable 1-byte
	// step and the grouped count kernels read a block's 64 codes whole.
	codePad = 64
	// wideShift is the lane of a column spanning more than 2^32 values:
	// its int64 column, 1<<3 bytes a value.
	wideShift = 3
	// signBit biases the 8-byte lane's bounds for the AVX2 kernel's
	// signed compare (kernels_avx2_amd64.s).
	signBit = 1 << 63
)

// useCoded gates the narrow lanes; atomic so tests and benchmarks can
// toggle it while concurrent readers scan.
var useCoded atomic.Bool

func init() { useCoded.Store(true) }

// SetCoded enables or disables the 1-, 2- and 4-byte lanes and returns
// the previous setting. Disabled, every filter reads its 8-byte lane, the
// int64 column: the benchmarks and the bench harness measure the narrow
// lanes against it on the same data this way.
func SetCoded(on bool) bool { return useCoded.Swap(on) }

// colMeta describes one column: its minimum, the unsigned width max-min,
// its lane (shift, log2 of the lane's bytes) and — once a scan that reads
// it asked, for a lane narrower than 8 bytes — its image.
type colMeta struct {
	base  int64
	width uint64
	shift uint8
	img   []byte
}

// laneShift is the lane of a column whose values span width+1.
func laneShift(width uint64) uint8 {
	switch {
	case width <= math.MaxUint8:
		return 0
	case width <= math.MaxUint16:
		return 1
	case width <= math.MaxUint32:
		return 2
	}
	return wideShift
}

// metaFor returns the cached metadata of dimension dim, computing it on
// first use and adding the image when wantImg is set and the column's
// lane is narrower than 8 bytes. The per-dimension slot is atomic:
// concurrent builders race idempotently (both compute the same values).
func (s *Store) metaFor(dim int, wantImg bool) *colMeta {
	slot := &s.meta[dim]
	m := slot.Load()
	if m == nil {
		lo, hi := s.MinMax(dim)
		// uint64(hi-lo) is the exact unsigned width even when the int64
		// subtraction wraps (hi >= lo, and the true width is < 2^64).
		w := uint64(hi - lo)
		m = &colMeta{base: lo, width: w, shift: laneShift(w)}
		slot.Store(m)
	}
	if wantImg && m.img == nil && m.shift < wideShift && s.NumRows() > 0 {
		m = &colMeta{base: m.base, width: m.width, shift: m.shift, img: m.image(s.cols[dim])}
		slot.Store(m)
	}
	return m
}

// image is the column's lane image: value-base in 1<<shift bytes per row,
// little-endian, padded by codePad bytes.
func (m *colMeta) image(col []int64) []byte {
	n := len(col) << m.shift
	img := make([]byte, n, n+codePad)
	switch m.shift {
	case 0:
		for i, v := range col {
			img[i] = byte(v - m.base)
		}
	case 1:
		for i, v := range col {
			binary.LittleEndian.PutUint16(img[2*i:], uint16(v-m.base))
		}
	default:
		for i, v := range col {
			binary.LittleEndian.PutUint32(img[4*i:], uint32(v-m.base))
		}
	}
	return img
}

// laneFilter is one filter as the plan kernel reads it: vals holds its
// column's lane from row 0 (the image, or the int64 column's bytes),
// shift is the lane, and lo and width are the lane values that match as
// the kernels compare them: v matches iff v-lo <= width in the lane's
// unsigned arithmetic — with both biased by 2^63 on the 8-byte lane,
// whose AVX2 compare is signed. The AVX2 kernel reads vals' pointer at
// offset 0, lo at 24, width at 32 and shift at 40, 48 bytes apart.
type laneFilter struct {
	vals      []byte
	lo, width uint64
	shift     uint8
}

// lane translates filter f (not inverted) onto its column's lane, or
// onto the 8-byte lane when wide is set, building the column's image on
// first use. all reports that f covers the whole span (it drops out),
// none that it misses it (the query matches nothing on this store);
// neither builds an image. Bounds are compared before anything is
// subtracted, so int64 extremes cannot overflow.
func (s *Store) lane(f query.Filter, wide bool) (lf laneFilter, all, none bool) {
	m := s.metaFor(f.Dim, false)
	top := m.base + int64(m.width) // the column's max
	if f.Hi < m.base || f.Lo > top {
		return lf, false, true
	}
	clo, chi := uint64(0), m.width
	if f.Lo > m.base {
		clo = uint64(f.Lo - m.base)
	}
	if f.Hi < top {
		chi = uint64(f.Hi - m.base)
	}
	switch {
	case clo == 0 && chi == m.width:
		return lf, true, false
	case wide || m.shift == wideShift:
		col := s.cols[f.Dim]
		vals := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(col))), len(col)*8)
		return laneFilter{vals, (uint64(m.base) + clo) ^ signBit, (chi - clo) ^ signBit, wideShift}, false, false
	}
	return laneFilter{s.metaFor(f.Dim, true).img, clo, chi - clo, m.shift}, false, false
}

// word is the portable lane step: the match word of the at most 64 rows
// [start, end) on f's lane, bit k for row start+k. On the 1-byte lane it
// compares 8 codes per uint64 and reads the block's 64 codes whole, so
// its bits past end are unspecified; the wider lanes compare one value at
// a time and leave them clear.
func (f *laneFilter) word(start, end int) uint64 {
	var w uint64
	switch f.shift {
	case 0:
		lo, width := f.lo*lanes1, f.width*lanes1
		c := f.vals[start : start+64]
		for k := 0; k < 64; k += 8 {
			h := codedMask8(binary.LittleEndian.Uint64(c[k:]), lo, width)
			// Gather the 8 high bits into one byte: bit 8i+7 lands on 56+i.
			w |= ((h >> 7) * 0x0102040810204080 >> 56) << k
		}
	case 1:
		v := f.vals[2*start : 2*end]
		for k := 0; k < end-start; k++ {
			w |= inLane(uint64(binary.LittleEndian.Uint16(v[2*k:])-uint16(f.lo)), f.width) << (k & 63)
		}
	case 2:
		v := f.vals[4*start : 4*end]
		for k := 0; k < end-start; k++ {
			w |= inLane(uint64(binary.LittleEndian.Uint32(v[4*k:])-uint32(f.lo)), f.width) << (k & 63)
		}
	default:
		v, lo, width := f.vals[8*start:8*end], f.lo^signBit, f.width^signBit
		for k := 0; k < end-start; k++ {
			w |= inLane(binary.NativeEndian.Uint64(v[8*k:])-lo, width) << (k & 63)
		}
	}
	return w
}

// inLane is 1 when d <= width, else 0, without a branch.
func inLane(d, width uint64) uint64 {
	_, borrow := bits.Sub64(width, d, 0)
	return borrow ^ 1
}

// Bytes-per-lane constants of the portable 1-byte step.
const (
	lanes1 = 0x0101010101010101
	lanesH = 0x8080808080808080
)

// codedMask8 is the portable 1-byte compare of 8 codes at once (SWAR):
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
