package wstats

import "math/bits"

// latHist is a compact log-linear latency histogram over nanosecond
// values: each power-of-two range is split into 4 sub-buckets, bounding
// the relative quantile error at ~25% while keeping the whole histogram
// at 2KB — small enough to embed one per heavy-hitter sketch entry.
// internal/obs has a finer (8 sub-bucket) striped histogram for the
// registry; this one trades resolution for per-fingerprint footprint and
// is only ever touched under the collector's mutex, so it needs no
// striping or atomics.
const (
	latSubBits    = 2
	latSubBuckets = 1 << latSubBits
	latNumBuckets = latSubBuckets + (63-latSubBits+1)*latSubBuckets
)

type latHist struct {
	total  uint64
	counts [latNumBuckets]uint64
}

func latIdx(v int64) int {
	if v < latSubBuckets {
		return int(v)
	}
	h := bits.Len64(uint64(v)) - 1 // >= latSubBits
	sub := int(uint64(v)>>(uint(h)-latSubBits)) & (latSubBuckets - 1)
	return latSubBuckets + (h-latSubBits)*latSubBuckets + sub
}

// latBucketMax is the inclusive upper bound of bucket idx, returned as
// the quantile estimate for ranks landing in it.
func latBucketMax(idx int) int64 {
	if idx < latSubBuckets {
		return int64(idx)
	}
	g := (idx - latSubBuckets) / latSubBuckets
	sub := (idx - latSubBuckets) % latSubBuckets
	h := uint(g + latSubBits)
	lo := int64(1)<<h + int64(sub)<<(h-latSubBits)
	return lo + int64(1)<<(h-latSubBits) - 1
}

func (h *latHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[latIdx(ns)]++
	h.total++
}

// quantile returns the q-quantile in nanoseconds (upper bucket bound), or
// 0 for an empty histogram.
func (h *latHist) quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return latBucketMax(i)
		}
	}
	return latBucketMax(latNumBuckets - 1)
}

func (h *latHist) reset() { *h = latHist{} }
