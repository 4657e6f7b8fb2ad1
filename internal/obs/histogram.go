package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values 0..7 get exact buckets; above that,
// each power-of-two octave splits into 8 log-spaced sub-buckets
// (subBits=3), bounding relative quantile error at 1/8 = 12.5% across
// the full int63 range (max exponent 62). 8 exact + 60 octaves x 8 subs
// = 488 buckets; at 8 bytes each a histogram's count array is ~4 KiB
// per stripe.
const (
	subBits    = 3
	subBuckets = 1 << subBits                         // 8
	numBuckets = subBuckets + (63-subBits)*subBuckets // 8 + 60*8 = 488
)

// bucketIdx maps a non-negative value to its bucket.
func bucketIdx(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // highest set bit, >= subBits
	sub := (v >> (uint(e) - subBits)) & (subBuckets - 1)
	return (e-subBits)*subBuckets + subBuckets + int(sub)
}

// bucketMax returns the largest value that lands in bucket idx — the
// upper bound reported for quantiles falling in that bucket, so reported
// quantiles never understate the true value by more than the bucket's
// 12.5% width.
func bucketMax(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	k := idx - subBuckets
	e := subBits + k>>subBits
	sub := int64(k & (subBuckets - 1))
	return ((subBuckets + sub + 1) << (uint(e) - subBits)) - 1
}

// histStripe is one recorder lane: bucket counts plus a running sum.
// Stripes are independently updated and summed at snapshot time, so the
// record path never shares cache lines between goroutines hashed to
// different stripes.
type histStripe struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64
	_      [56]byte
}

// Histogram is a lock-free log-bucketed histogram. Record is wait-free
// (two atomic adds) and allocation-free; Snapshot sums the stripes.
// Scale converts recorded raw values to exposed units: duration
// histograms record nanoseconds with Scale=1e-9 so /metrics exports
// seconds, plain value histograms (wave sizes, fan-out) use Scale=1.
// The zero value is NOT usable; get one from Registry.Histogram or
// Registry.DurationHistogram.
type Histogram struct {
	stripes []histStripe
	mask    uint32
	scale   float64
}

func newHistogram(scale float64) *Histogram {
	return &Histogram{stripes: make([]histStripe, numStripes), mask: uint32(numStripes - 1), scale: scale}
}

// Record adds one observation of a raw value. Negative values clamp to 0
// (a clock step backwards should not corrupt the index math).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := &h.stripes[stripeFor(h.mask)]
	s.counts[bucketIdx(v)].Add(1)
	s.sum.Add(v)
}

// RecordDuration records d in the histogram's raw unit (nanoseconds for
// duration histograms).
func (h *Histogram) RecordDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Record(int64(d))
}

// Snapshot sums the stripes into an immutable, mergeable view.
func (h *Histogram) Snapshot() HistSnapshot {
	snap := HistSnapshot{Scale: h.scale}
	for i := range h.stripes {
		s := &h.stripes[i]
		for b := range s.counts {
			if n := s.counts[b].Load(); n != 0 {
				if snap.Buckets == nil {
					snap.Buckets = make([]uint64, numBuckets)
				}
				snap.Buckets[b] += n
			}
		}
		snap.Sum += s.sum.Load()
	}
	if snap.Buckets == nil {
		snap.Buckets = make([]uint64, numBuckets)
	}
	return snap
}

// HistSnapshot is a point-in-time copy of a histogram: a plain bucket
// array plus raw-unit sum. Snapshots merge and subtract bucket-wise,
// which is what makes cross-shard aggregation and bench interval diffs
// exact: quantiles of a merged snapshot equal quantiles of a histogram
// that had recorded all the observations itself.
type HistSnapshot struct {
	Buckets []uint64
	Sum     int64
	Scale   float64
}

// Count is the number of recorded observations.
func (s HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Buckets {
		n += c
	}
	return n
}

// Quantile returns the q-quantile (q in [0,1]) in scaled units, as the
// upper bound of the bucket holding the rank-ceil(q*count) observation.
// Returns 0 for an empty snapshot; callers that must distinguish "no
// observations" from a genuine zero quantile use QuantileOK.
func (s HistSnapshot) Quantile(q float64) float64 {
	v, _ := s.QuantileOK(q)
	return v
}

// QuantileOK is Quantile with an explicit empty-snapshot sentinel: it
// reports (0, false) when the snapshot holds no observations, so callers
// rendering quantiles (the CLI stats line, bench reports) can print a
// placeholder instead of a misleading 0. With at least one observation it
// reports (quantile, true); a single sample v yields its bucket's upper
// bound, within the histogram's 12.5% relative error of v.
func (s HistSnapshot) QuantileOK(q float64) (float64, bool) {
	total := s.Count()
	if total == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for b, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return float64(bucketMax(b)) * s.scaleOr1(), true
		}
	}
	return float64(bucketMax(len(s.Buckets)-1)) * s.scaleOr1(), true
}

// Mean returns the exact mean of recorded values in scaled units (the
// sum is tracked exactly, not reconstructed from buckets).
func (s HistSnapshot) Mean() float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	return float64(s.Sum) / float64(total) * s.scaleOr1()
}

// Merge returns the bucket-wise union of two snapshots (cross-shard
// aggregation). Merging with an empty snapshot is the identity.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if len(o.Buckets) == 0 {
		return s.clone()
	}
	if len(s.Buckets) == 0 {
		out := o.clone()
		if out.Scale == 0 {
			out.Scale = s.Scale
		}
		return out
	}
	out := s.clone()
	for b, c := range o.Buckets {
		out.Buckets[b] += c
	}
	out.Sum += o.Sum
	return out
}

// Sub returns the interval histogram s minus an earlier snapshot o —
// the observations recorded between the two scrapes. Buckets saturate
// at zero so a mismatched pair cannot underflow.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	out := s.clone()
	for b := range out.Buckets {
		if b < len(o.Buckets) {
			if o.Buckets[b] >= out.Buckets[b] {
				out.Buckets[b] = 0
			} else {
				out.Buckets[b] -= o.Buckets[b]
			}
		}
	}
	out.Sum -= o.Sum
	return out
}

func (s HistSnapshot) clone() HistSnapshot {
	out := HistSnapshot{Sum: s.Sum, Scale: s.Scale}
	out.Buckets = make([]uint64, numBuckets)
	copy(out.Buckets, s.Buckets)
	return out
}

func (s HistSnapshot) scaleOr1() float64 {
	if s.Scale == 0 {
		return 1
	}
	return s.Scale
}
