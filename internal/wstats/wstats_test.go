package wstats

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	q := query.NewCount(query.Filter{Dim: 0, Lo: 1, Hi: 1})
	c.Record(q, time.Millisecond, 1, 1, 8)
	c.Bind(Binding{})
	c.Close()
	if s := c.Snapshot(); s.Queries != 0 || s.Fingerprints != nil {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
	// Close releases nothing, so a closed collector is an open one.
	c = New(Config{})
	c.sampleEvery = 1
	c.Close()
	c.Record(q, time.Millisecond, 1, 1, 8)
	if s := c.Snapshot(); s.Queries != 1 || s.Sampled != 1 {
		t.Fatalf("after Close: queries=%d sampled=%d, want 1/1", s.Queries, s.Sampled)
	}
}

func TestFingerprintStability(t *testing.T) {
	eq1 := query.NewCount(query.Filter{Dim: 2, Lo: 5, Hi: 5})
	eq2 := query.NewCount(query.Filter{Dim: 2, Lo: 9, Hi: 9})
	if Key(eq1) != Key(eq2) {
		t.Error("equality filters with different literals should share a fingerprint")
	}
	otherDim := query.NewCount(query.Filter{Dim: 3, Lo: 5, Hi: 5})
	if Key(eq1) == Key(otherDim) {
		t.Error("different dimension sets must not collide")
	}
	r1 := query.NewCount(query.Filter{Dim: 1, Lo: 0, Hi: 100})
	r2 := query.NewCount(query.Filter{Dim: 1, Lo: 500, Hi: 590}) // similar width
	r3 := query.NewCount(query.Filter{Dim: 1, Lo: 0, Hi: 100_000})
	if Key(r1) != Key(r2) {
		t.Error("ranges of similar width should share a fingerprint")
	}
	if Key(r1) == Key(r3) {
		t.Error("a 1000x wider range should change the fingerprint")
	}
	ge := query.NewCount(query.Filter{Dim: 1, Lo: 10, Hi: query.NoHi})
	le := query.NewCount(query.Filter{Dim: 1, Lo: query.NoLo, Hi: 10})
	if Key(ge) == Key(le) {
		t.Error("half-open directions must not collide")
	}
	sum := query.NewSum(4, query.Filter{Dim: 2, Lo: 5, Hi: 5})
	if Key(sum) == Key(eq1) {
		t.Error("sum vs count must not collide")
	}
	// Filter order must not matter (normalize sorts, but verify end-to-end).
	a := query.NewCount(query.Filter{Dim: 0, Lo: 1, Hi: 1}, query.Filter{Dim: 5, Lo: 0, Hi: query.NoHi})
	b := query.NewCount(query.Filter{Dim: 5, Lo: 3, Hi: query.NoHi}, query.Filter{Dim: 0, Lo: 7, Hi: 7})
	if Key(a) != Key(b) {
		t.Error("fingerprint must be independent of filter construction order")
	}
}

func TestShapeRendering(t *testing.T) {
	names := []string{"time", "zone", "fare"}
	q := query.NewSum(2,
		query.Filter{Dim: 1, Lo: 5, Hi: 5},
		query.Filter{Dim: 0, Lo: 100, Hi: 199},
		query.Filter{Dim: 2, Lo: 10, Hi: query.NoHi})
	got := Shape(q, names)
	want := "sum(fare) time=[~2^7] zone=? fare>=?"
	if got != want {
		t.Fatalf("Shape = %q, want %q", got, want)
	}
	if s := Shape(query.NewCount(query.Filter{Dim: 7, Lo: query.NoLo, Hi: 3}), nil); s != "count d7<=?" {
		t.Fatalf("fallback shape = %q", s)
	}
}

// TestCollectorEndToEnd drives a skewed mix through a collector and
// checks the sketch ranking, per-dim stats, SLO counters, and the
// adaptive slow log with a stub trace function.
func TestCollectorEndToEnd(t *testing.T) {
	c := New(Config{Objectives: []Objective{{Latency: time.Millisecond, Target: 0.99}}})
	c.sampleEvery = 1 // deterministic: every query is folded in
	var traced []string
	c.Bind(Binding{
		DimNames: []string{"zone", "fare"},
		DomainLo: []int64{0, 0},
		DomainHi: []int64{255, 1000},
		Rows:     func() uint64 { return 1000 },
		Trace: func(q query.Query) *obs.QueryTrace {
			traced = append(traced, q.String())
			return &obs.QueryTrace{Query: q.String(), Total: time.Millisecond}
		},
	})

	hot := query.NewCount(query.Filter{Dim: 0, Lo: 5, Hi: 5})
	warm := query.NewCount(query.Filter{Dim: 1, Lo: 0, Hi: 100})
	for i := 0; i < 300; i++ {
		c.Record(hot, 10*time.Microsecond, 100, 200, 1600)
	}
	// The slow threshold arms at 1.5x the 10µs p99 while the hot records
	// are still streaming in, so the warm shape stays under it
	// (12µs < 15µs): were it to trip the fresh threshold, its exemplar
	// capture would open the trace rate-limit window and swallow the real
	// outlier's.
	for i := 0; i < 30; i++ {
		c.Record(warm, 12*time.Microsecond, 250, 300, 2400)
	}
	// Past minSamples the threshold is armed off the ~10-12µs p99; a 5ms
	// outlier must land in the slow log (and breach the 1ms SLO).
	slowQ := query.NewSum(1, query.Filter{Dim: 0, Lo: 0, Hi: 200})
	c.Record(slowQ, 5*time.Millisecond, 900, 1000, 8000)

	s := c.Snapshot()
	if s.Queries != 331 || s.Sampled != 331 {
		t.Fatalf("queries=%d sampled=%d, want 331/331", s.Queries, s.Sampled)
	}
	if len(s.Fingerprints) == 0 || s.Fingerprints[0].Shape != "count zone=?" {
		t.Fatalf("top fingerprint = %+v, want count zone=? first", s.Fingerprints)
	}
	if got := s.Fingerprints[0].Count; got != 300 {
		t.Fatalf("top fingerprint count = %d, want 300", got)
	}
	if s.SlowThresholdSeconds <= 0 {
		t.Fatal("slow threshold never armed")
	}
	if s.SlowSeen == 0 || len(s.Slow) == 0 {
		t.Fatalf("slow query not captured: seen=%d entries=%d", s.SlowSeen, len(s.Slow))
	}
	if !strings.Contains(s.Slow[0].Query, "SUM") {
		t.Fatalf("slow entry query = %q", s.Slow[0].Query)
	}
	if s.Slow[0].Trace == "" || len(traced) != 1 {
		t.Fatalf("exemplar trace not captured (traced=%v)", traced)
	}
	if len(s.SLO) != 1 || s.SLO[0].Bad != 1 || s.SLO[0].Good != 330 {
		t.Fatalf("slo = %+v, want good=330 bad=1", s.SLO)
	}
	if s.SLO[0].BurnRate <= 0 {
		t.Fatal("burn rate should be positive after a breach")
	}

	// Per-dim stats: zone got 300 eq filters + the slow range; fare got a
	// range with mean selectivity 250/1000 and width 101/1001.
	var zone, fare *DimStat
	for i := range s.Dims {
		switch s.Dims[i].Dim {
		case 0:
			zone = &s.Dims[i]
		case 1:
			fare = &s.Dims[i]
		}
	}
	if zone == nil || fare == nil {
		t.Fatalf("dims missing: %+v", s.Dims)
	}
	if zone.Eq != 300 {
		t.Fatalf("zone eq = %d, want 300", zone.Eq)
	}
	if fare.Range != 30 || fare.SelSamples != 30 {
		t.Fatalf("fare range=%d selSamples=%d, want 30/30", fare.Range, fare.SelSamples)
	}
	if fare.MeanSelectivity < 0.2 || fare.MeanSelectivity > 0.3 {
		t.Fatalf("fare mean selectivity = %f, want ~0.25", fare.MeanSelectivity)
	}
	if fare.MeanWidthFrac < 0.05 || fare.MeanWidthFrac > 0.15 {
		t.Fatalf("fare mean width frac = %f, want ~0.1", fare.MeanWidthFrac)
	}
}

// TestCollectorSampling checks that sampleEvery thins the sampled
// statistics but never the SLO counters.
func TestCollectorSampling(t *testing.T) {
	c := New(Config{Objectives: []Objective{{Latency: time.Second, Target: 0.5}}})
	q := query.NewCount(query.Filter{Dim: 0, Lo: 1, Hi: 1})
	for i := 0; i < 1000; i++ {
		c.Record(q, time.Microsecond, 1, 1, 8)
	}
	s := c.Snapshot()
	if s.Queries != 1000 {
		t.Fatalf("queries = %d", s.Queries)
	}
	if s.Sampled != 125 || s.SampleEvery != 8 {
		t.Fatalf("sampled = %d (1 in %d), want 125 (1 in 8)", s.Sampled, s.SampleEvery)
	}
	if s.SLO[0].Good != 1000 {
		t.Fatalf("slo good = %d, want all 1000", s.SLO[0].Good)
	}
}

// TestCollectorConcurrent hammers Record from many goroutines while
// another takes snapshots (the -race CI run is the real assertion) and
// checks the passive contract: once the Records have returned, every one
// is in the always-on counters and was either folded in or counted as
// dropped on contention — nothing lost, nothing double counted, nothing
// to wait for.
func TestCollectorConcurrent(t *testing.T) {
	c := New(Config{})
	c.sampleEvery = 1
	c.Bind(Binding{Rows: func() uint64 { return 100 }})
	const goroutines, per = 8, 2000
	stop, snaps := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(snaps)
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := query.NewCount(query.Filter{Dim: g % 3, Lo: int64(i % 7), Hi: int64(i % 7)})
				c.Record(q, time.Duration(i%100)*time.Microsecond, 1, 2, 16)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snaps
	s := c.Snapshot()
	if s.Queries != goroutines*per {
		t.Fatalf("queries = %d, want %d", s.Queries, goroutines*per)
	}
	if s.Sampled+s.Dropped != goroutines*per {
		t.Fatalf("sampled %d + dropped %d != %d", s.Sampled, s.Dropped, goroutines*per)
	}
	if s.Sampled == 0 {
		t.Fatal("every sample was dropped")
	}
}

// TestTraceMayRecord binds a trace function that records into the
// collector it serves. The capture runs inside Record with the statistics
// held, so the nested Record must find them busy and count itself dropped
// rather than wait for its own caller.
func TestTraceMayRecord(t *testing.T) {
	c := New(Config{})
	c.sampleEvery = 1
	q := query.NewCount(query.Filter{Dim: 0, Lo: 1, Hi: 1})
	traces := 0
	c.Bind(Binding{Trace: func(q query.Query) *obs.QueryTrace {
		traces++
		c.Record(q, time.Microsecond, 1, 1, 8)
		return new(obs.QueryTrace)
	}})
	for i := 0; i < minSamples; i++ {
		c.Record(q, time.Microsecond, 1, 1, 8)
	}
	c.Record(q, time.Second, 1, 1, 8)
	s := c.Snapshot()
	if traces != 1 || s.Queries != minSamples+2 || s.Sampled != minSamples+1 || s.Dropped != 1 {
		t.Fatalf("traces=%d queries=%d sampled=%d dropped=%d, want 1/%d/%d/1",
			traces, s.Queries, s.Sampled, s.Dropped, minSamples+2, minSamples+1)
	}
}

func TestLatHist(t *testing.T) {
	var h latHist
	for i := int64(0); i < 1000; i++ {
		h.record(i)
	}
	if h.total != 1000 {
		t.Fatalf("total = %d", h.total)
	}
	p50 := h.quantile(0.5)
	if p50 < 400 || p50 > 700 {
		t.Fatalf("p50 = %d, want ~500 within bucket error", p50)
	}
	p99 := h.quantile(0.99)
	if p99 < 900 || p99 > 1300 {
		t.Fatalf("p99 = %d, want ~990 within bucket error", p99)
	}
	// Index/bound round trip across the full range.
	for _, v := range []int64{0, 1, 3, 4, 7, 8, 100, 1e6, 1e12, 1<<62 + 12345} {
		idx := latIdx(v)
		if idx < 0 || idx >= latNumBuckets {
			t.Fatalf("latIdx(%d) = %d out of range", v, idx)
		}
		if max := latBucketMax(idx); max < v {
			t.Fatalf("latBucketMax(%d)=%d below value %d", idx, max, v)
		}
		if idx > 0 && latBucketMax(idx-1) >= v {
			t.Fatalf("value %d should not fit bucket %d (max %d)", v, idx-1, latBucketMax(idx-1))
		}
	}
	h.reset()
	if h.total != 0 || h.quantile(0.5) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestSelAndPosBuckets(t *testing.T) {
	if selBucket(1) != 0 || selBucket(0.6) != 0 {
		t.Error("sel > 1/2 should land in bucket 0")
	}
	if selBucket(0.25) != 2 {
		t.Errorf("selBucket(0.25) = %d, want 2", selBucket(0.25))
	}
	if selBucket(0) != selBuckets-1 {
		t.Error("zero selectivity should land in the last bucket")
	}
	if posBucket(-5, 0, 100) != 0 || posBucket(200, 0, 100) != posBuckets-1 {
		t.Error("out-of-domain bounds must clamp")
	}
	if b := posBucket(50, 0, 100); b != posBuckets/2 {
		t.Errorf("midpoint bucket = %d", b)
	}
}

func BenchmarkRecord(b *testing.B) {
	c := New(Config{})
	q := query.NewCount(query.Filter{Dim: 0, Lo: 5, Hi: 5}, query.Filter{Dim: 3, Lo: 0, Hi: 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Record(q, 13*time.Microsecond, 100, 200, 1600)
	}
}

func BenchmarkKey(b *testing.B) {
	q := query.NewCount(query.Filter{Dim: 0, Lo: 5, Hi: 5}, query.Filter{Dim: 3, Lo: 0, Hi: 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Key(q)
	}
}
