package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryGetOrCreate checks the same name yields the same
// instrument, including under concurrent first access.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same counter name returned distinct instances")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same histogram name returned distinct instances")
	}

	var wg sync.WaitGroup
	got := make([]*Counter, 16)
	for i := range got {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.Counter("raced")
		}()
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent get-or-create returned distinct instances")
		}
	}
}

// TestNilRegistryNoOp checks the nil-disables-everything contract every
// instrumented component relies on.
func TestNilRegistryNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5)
	r.Histogram("h").Record(9)
	r.DurationHistogram("d").RecordDuration(time.Second)
	r.GaugeFunc("f", func() float64 { return 1 })
	r.CounterFunc("cf", func() uint64 { return 1 })
	NewQueryMetrics(r).Observe(time.Millisecond, 10, 80)
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Hists) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestSnapshotDiff checks counters subtract, gauges keep the current
// level, and histogram diffs hold only the interval's observations.
func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := 3.0
	r.GaugeFunc("g", func() float64 { return g })
	h := r.Histogram("h")
	c.Add(10)
	h.Record(100)
	before := r.Snapshot()
	c.Add(7)
	g = 99
	h.Record(2000)
	diff := r.Snapshot().Diff(before)
	if diff.Counters["c"] != 7 {
		t.Fatalf("counter diff %d want 7", diff.Counters["c"])
	}
	if diff.Gauges["g"] != 99 {
		t.Fatalf("gauge in diff %g want current level 99", diff.Gauges["g"])
	}
	hd := diff.Hists["h"]
	if hd.Count() != 1 {
		t.Fatalf("hist diff count %d want 1", hd.Count())
	}
	if q := hd.Quantile(1); q != float64(bucketMax(bucketIdx(2000))) {
		t.Fatalf("hist diff max %g, want bucket bound of 2000", q)
	}
}

// TestGaugeFunc checks function gauges are evaluated at snapshot time
// and re-registration replaces the source.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("fn", func() float64 { return v })
	if got := r.Snapshot().Gauges["fn"]; got != 1.5 {
		t.Fatalf("gauge func %g want 1.5", got)
	}
	v = 2.5
	if got := r.Snapshot().Gauges["fn"]; got != 2.5 {
		t.Fatalf("gauge func not re-evaluated: %g want 2.5", got)
	}
	r.GaugeFunc("fn", func() float64 { return -1 })
	if got := r.Snapshot().Gauges["fn"]; got != -1 {
		t.Fatalf("gauge func not replaced: %g want -1", got)
	}
}

// TestCounterFunc checks counter functions are read at snapshot time,
// that registrations under one name sum (with a Counter of that name
// too), and that they diff and expose like any counter.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var a, b uint64 = 3, 4
	r.CounterFunc("c_total", func() uint64 { return a })
	r.CounterFunc("c_total", func() uint64 { return b })
	if got := r.Snapshot().Counters["c_total"]; got != 7 {
		t.Fatalf("summed counter func %d want 7", got)
	}
	before := r.Snapshot()
	a, b = 10, 5
	r.Counter("c_total").Add(1)
	snap := r.Snapshot()
	if got := snap.Counters["c_total"]; got != 16 {
		t.Fatalf("counter funcs plus counter %d want 16", got)
	}
	if got := snap.Diff(before).Counters["c_total"]; got != 9 {
		t.Fatalf("counter func diff %d want 9", got)
	}
	var text strings.Builder
	WritePrometheus(&text, snap)
	if !strings.Contains(text.String(), "# TYPE c_total counter\nc_total 16\n") {
		t.Fatalf("exposition:\n%s", text.String())
	}
}

// TestQueryMetricsSharedInstance checks two QueryMetrics from one
// registry feed the same instruments — the property that makes shard
// stores aggregate by construction.
func TestQueryMetricsSharedInstance(t *testing.T) {
	r := NewRegistry()
	a := NewQueryMetrics(r)
	b := NewQueryMetrics(r)
	a.Observe(time.Millisecond, 100, 800)
	b.Observe(2*time.Millisecond, 50, 400)
	snap := r.Snapshot()
	if snap.Counters[MScanRows] != 150 || snap.Counters[MScanBytes] != 1200 {
		t.Fatalf("rows/bytes %d/%d want 150/1200", snap.Counters[MScanRows], snap.Counters[MScanBytes])
	}
	if snap.Hists[MQueryLatency].Count() != 2 {
		t.Fatalf("latency count %d want 2", snap.Hists[MQueryLatency].Count())
	}
}

// TestWritePrometheus checks exposition well-formedness: TYPE lines, a
// cumulative non-decreasing le series ending in +Inf, matching _count,
// and label-suffixed gauges declared under their family name.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("tsunami_queries_total").Add(3)
	r.GaugeFunc(`tsunami_sharded_skew{shard="0"}`, func() float64 { return 2 })
	r.GaugeFunc(`tsunami_sharded_skew{shard="1"}`, func() float64 { return 4 })
	h := r.DurationHistogram("tsunami_query_latency_seconds")
	h.RecordDuration(time.Millisecond)
	h.RecordDuration(20 * time.Millisecond)
	h.RecordDuration(20 * time.Millisecond)

	var b strings.Builder
	WritePrometheus(&b, r.Snapshot())
	text := b.String()

	for _, want := range []string{
		"# TYPE tsunami_queries_total counter\n",
		"tsunami_queries_total 3\n",
		"# TYPE tsunami_sharded_skew gauge\n",
		`tsunami_sharded_skew{shard="0"} 2` + "\n",
		`tsunami_sharded_skew{shard="1"} 4` + "\n",
		"# TYPE tsunami_query_latency_seconds histogram\n",
		`tsunami_query_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"tsunami_query_latency_seconds_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE tsunami_sharded_skew gauge") != 1 {
		t.Fatalf("family TYPE line repeated per labeled series:\n%s", text)
	}
	// Cumulative le buckets must be non-decreasing.
	prev := uint64(0)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "tsunami_query_latency_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		cum, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if cum < prev {
			t.Fatalf("cumulative bucket decreased: %q after %d", line, prev)
		}
		prev = cum
	}
	if prev != 3 {
		t.Fatalf("final cumulative bucket %d want 3", prev)
	}
}

// TestStatsz checks the JSON reduction carries quantiles and levels.
func TestStatsz(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.GaugeFunc("g", func() float64 { return -2 })
	h := r.Histogram("h")
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	sz := ToStatsz(r.Snapshot())
	if sz.Counters["c"] != 5 || sz.Gauges["g"] != -2 {
		t.Fatalf("counters/gauges wrong: %+v", sz)
	}
	hh := sz.Histograms["h"]
	if hh.Count != 100 || hh.P50 < 50_000 || hh.P99 < hh.P50 || hh.P999 < hh.P99 {
		t.Fatalf("histogram reduction wrong: %+v", hh)
	}
}
