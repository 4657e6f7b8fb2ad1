package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestBucketRoundTrip checks the index/bound pair is consistent: every
// value lands in a bucket whose bound is >= the value, and the bound
// itself lands back in the same bucket (bucketMax is the bucket's
// largest member).
func TestBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1025,
		1<<20 - 1, 1 << 20, 1<<40 + 12345, 1<<62 - 1, 1 << 62}
	for i := 0; i < 10000; i++ {
		values = append(values, rand.Int63())
	}
	for _, v := range values {
		idx := bucketIdx(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
		max := bucketMax(idx)
		if max < v {
			t.Fatalf("bucketMax(%d) = %d < value %d", idx, max, v)
		}
		if bucketIdx(max) != idx {
			t.Fatalf("bucketMax(%d) = %d maps back to bucket %d", idx, max, bucketIdx(max))
		}
		if idx > 0 {
			if prev := bucketMax(idx - 1); prev >= v {
				t.Fatalf("value %d in bucket %d but previous bucket bound %d >= value", v, idx, prev)
			}
		}
	}
}

// TestBucketBoundsMonotone checks bucket bounds strictly increase across
// the whole index range (a prerequisite for cumulative le buckets).
func TestBucketBoundsMonotone(t *testing.T) {
	prev := int64(-1)
	for idx := 0; idx < numBuckets; idx++ {
		b := bucketMax(idx)
		if b <= prev {
			t.Fatalf("bucketMax(%d) = %d <= bucketMax(%d) = %d", idx, b, idx-1, prev)
		}
		prev = b
	}
}

// TestQuantileDifferential is the randomized oracle test: quantiles of
// the histogram must equal the bucket-rounded quantiles of a sorted
// slice holding the same observations, for several distributions and
// quantile points. The histogram and the oracle share the
// rank-ceil(q*n) convention, so after pushing the oracle's answer
// through the same bucket rounding the match is exact, not approximate.
func TestQuantileDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distros := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000) },
		"exp":       func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"heavytail": func() int64 { return int64(1) << uint(rng.Intn(40)) },
		"constant":  func() int64 { return 42_000 },
		"tiny":      func() int64 { return rng.Int63n(8) },
	}
	for name, draw := range distros {
		for _, n := range []int{1, 2, 10, 1000, 50_000} {
			h := newHistogram(1)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = draw()
				h.Record(vals[i])
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			snap := h.Snapshot()
			if got := snap.Count(); got != uint64(n) {
				t.Fatalf("%s/n=%d: count %d want %d", name, n, got, n)
			}
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
				rank := int(q * float64(n))
				if rank < 1 {
					rank = 1
				}
				if rank > n {
					rank = n
				}
				oracle := float64(bucketMax(bucketIdx(vals[rank-1])))
				if got := snap.Quantile(q); got != oracle {
					t.Fatalf("%s/n=%d q=%g: hist %g, oracle (bucket-rounded) %g (raw %d)",
						name, n, q, got, oracle, vals[rank-1])
				}
			}
		}
	}
}

// TestQuantileErrorBound checks the structural guarantee: a reported
// quantile never exceeds the true order statistic by more than the
// 12.5% bucket width (and never understates it).
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := newHistogram(1)
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
		h.Record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	snap := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		rank := int(q * float64(len(vals)))
		truth := float64(vals[rank-1])
		got := snap.Quantile(q)
		if got < truth {
			t.Fatalf("q=%g: reported %g below true order statistic %g", q, got, truth)
		}
		if got > truth*1.125+1 {
			t.Fatalf("q=%g: reported %g exceeds true %g by more than 12.5%%", q, got, truth)
		}
	}
}

// TestMergeAssociativity checks cross-shard aggregation semantics:
// merging per-shard snapshots in any grouping equals one histogram that
// saw every observation, and merge with an empty snapshot is identity.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shards := make([]*Histogram, 4)
	union := newHistogram(1)
	for i := range shards {
		shards[i] = newHistogram(1)
		for j := 0; j < 5000; j++ {
			v := rng.Int63n(1 << 34)
			shards[i].Record(v)
			union.Record(v)
		}
	}
	s := make([]HistSnapshot, len(shards))
	for i, h := range shards {
		s[i] = h.Snapshot()
	}
	left := s[0].Merge(s[1]).Merge(s[2]).Merge(s[3])
	right := s[0].Merge(s[1].Merge(s[2].Merge(s[3])))
	want := union.Snapshot()
	for _, got := range []HistSnapshot{left, right} {
		if got.Count() != want.Count() || got.Sum != want.Sum {
			t.Fatalf("merge count/sum (%d,%d) != union (%d,%d)", got.Count(), got.Sum, want.Count(), want.Sum)
		}
		for b := range want.Buckets {
			if got.Buckets[b] != want.Buckets[b] {
				t.Fatalf("bucket %d: merged %d union %d", b, got.Buckets[b], want.Buckets[b])
			}
		}
		for _, q := range []float64{0.5, 0.99} {
			if got.Quantile(q) != want.Quantile(q) {
				t.Fatalf("q=%g: merged %g union %g", q, got.Quantile(q), want.Quantile(q))
			}
		}
	}
	empty := newHistogram(1).Snapshot()
	id := s[0].Merge(empty)
	if id.Count() != s[0].Count() || id.Sum != s[0].Sum {
		t.Fatalf("merge with empty changed the snapshot")
	}
}

// TestSubInterval checks the scrape-diff path: (after - before) holds
// exactly the observations recorded between the two snapshots.
func TestSubInterval(t *testing.T) {
	h := newHistogram(1)
	for i := 0; i < 100; i++ {
		h.Record(int64(i))
	}
	before := h.Snapshot()
	interval := newHistogram(1)
	for i := 0; i < 500; i++ {
		v := int64(1000 + i*37)
		h.Record(v)
		interval.Record(v)
	}
	got := h.Snapshot().Sub(before)
	want := interval.Snapshot()
	if got.Count() != want.Count() || got.Sum != want.Sum {
		t.Fatalf("interval count/sum (%d,%d) want (%d,%d)", got.Count(), got.Sum, want.Count(), want.Sum)
	}
	for b := range want.Buckets {
		if got.Buckets[b] != want.Buckets[b] {
			t.Fatalf("bucket %d: interval %d want %d", b, got.Buckets[b], want.Buckets[b])
		}
	}
}

// TestDurationScale checks duration histograms record ns, expose seconds.
func TestDurationScale(t *testing.T) {
	h := newHistogram(1e-9)
	h.RecordDuration(10 * time.Millisecond)
	snap := h.Snapshot()
	p := snap.Quantile(0.5)
	if p < 0.010 || p > 0.010*1.125+1e-9 {
		t.Fatalf("p50 of a 10ms observation = %gs, want ~0.010s", p)
	}
	if m := snap.Mean(); m < 0.0099 || m > 0.0101 {
		t.Fatalf("mean = %gs, want 0.010s exactly (sum is tracked raw)", m)
	}
}

// TestConcurrentRecord hammers one histogram and one counter from many
// goroutines (run under -race in CI) and checks nothing is lost: counts
// are exact because every Record is an atomic add to some stripe.
func TestConcurrentRecord(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10_000
	)
	h := newHistogram(1)
	c := NewCounter()
	done := make(chan int64, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			var sum int64
			for i := 0; i < perG; i++ {
				v := int64(g*perG + i)
				h.Record(v)
				c.Add(2)
				sum += v
			}
			done <- sum
		}()
	}
	var wantSum int64
	for g := 0; g < goroutines; g++ {
		wantSum += <-done
	}
	snap := h.Snapshot()
	if got := snap.Count(); got != goroutines*perG {
		t.Fatalf("count %d want %d", got, goroutines*perG)
	}
	if snap.Sum != wantSum {
		t.Fatalf("sum %d want %d", snap.Sum, wantSum)
	}
	if got := c.Load(); got != 2*goroutines*perG {
		t.Fatalf("counter %d want %d", got, 2*goroutines*perG)
	}
}

// TestRecordAllocFree asserts the hot record path does not allocate —
// the stack-probe stripe hash must not force an escape.
func TestRecordAllocFree(t *testing.T) {
	h := newHistogram(1)
	c := NewCounter()
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(12345)
		c.Inc()
	}); n != 0 {
		t.Fatalf("record path allocates %v per op, want 0", n)
	}
}

// TestNegativeClamp checks a backwards clock step records as 0 rather
// than corrupting bucket math.
func TestNegativeClamp(t *testing.T) {
	h := newHistogram(1)
	h.Record(-5)
	snap := h.Snapshot()
	if snap.Count() != 1 || snap.Buckets[0] != 1 {
		t.Fatalf("negative value not clamped to bucket 0: %+v", snap.Buckets[:4])
	}
}

// TestQuantileOKEmpty pins the empty-histogram sentinel: an empty
// snapshot must report (0, false) for every quantile — never a
// bucket-edge artifact — and the legacy Quantile wrapper must return 0.
func TestQuantileOKEmpty(t *testing.T) {
	h := newHistogram(1e-9)
	snap := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v, ok := snap.QuantileOK(q); ok || v != 0 {
			t.Fatalf("empty QuantileOK(%v) = (%v, %v), want (0, false)", q, v, ok)
		}
		if v := snap.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, v)
		}
	}
	// A diffed pair of identical snapshots is empty too.
	h.Record(1234)
	s := h.Snapshot()
	if v, ok := s.Sub(s).QuantileOK(0.99); ok || v != 0 {
		t.Fatalf("self-diff QuantileOK = (%v, %v), want (0, false)", v, ok)
	}
}

// TestQuantileOKSingleSample: one observation v must yield ok=true at
// every quantile, with the value equal to v's bucket upper bound (within
// the histogram's 12.5% relative error of v, never below it).
func TestQuantileOKSingleSample(t *testing.T) {
	for _, v := range []int64{0, 1, 7, 8, 1000, 123456789} {
		h := newHistogram(0) // scale 0 → raw units
		h.Record(v)
		snap := h.Snapshot()
		want := float64(bucketMax(bucketIdx(v)))
		for _, q := range []float64{0, 0.5, 1} {
			got, ok := snap.QuantileOK(q)
			if !ok {
				t.Fatalf("single-sample QuantileOK(%v) not ok for v=%d", q, v)
			}
			if got != want {
				t.Fatalf("single-sample QuantileOK(%v) for v=%d = %v, want bucket bound %v", q, v, got, want)
			}
			if got < float64(v) || got > float64(v)*1.125+1 {
				t.Fatalf("single-sample bound %v outside [v, 1.125v+1] for v=%d", got, v)
			}
		}
	}
}
