package wstats

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/query"
)

// Objective is one latency SLO: at least Target of queries answered
// within Latency.
type Objective struct {
	Latency time.Duration
	Target  float64
}

const (
	// topK is the heavy-hitter sketch capacity, in fingerprints.
	topK = 64
	// slowLogSize bounds the slow-query exemplar ring.
	slowLogSize = 64
	// sampleEvery folds every Nth query into the stateful statistics
	// (sketch, selectivity stats, latency histograms). SLO counters and
	// the slow-query check are always-on regardless — sampling only thins
	// the heavyweight statistics. Queries beyond the slow threshold are
	// always folded.
	sampleEvery = 8
	// slowFactor sets the adaptive slow threshold at this multiple of the
	// sampled p99; the threshold arms after minSamples sampled queries.
	slowFactor = 1.5
	minSamples = 64
	// traceInterval rate-limits exemplar trace captures for slow-log
	// entries: at most one re-executed trace per interval. Entries
	// between captures are logged without a trace.
	traceInterval = 250 * time.Millisecond
)

// Config configures a Collector; the zero value takes the default
// objectives.
type Config struct {
	// Objectives are the latency SLOs tracked with always-on good/bad
	// counters (default: 1ms@99%, 10ms@99.9%).
	Objectives []Objective
}

// Binding connects a Collector to the store it observes: column names for
// shape rendering, per-dimension domains for normalized bound histograms,
// a live row count for selectivity, and a trace function the slow-query
// log uses to capture exemplar explain-analyze traces. Serving layers
// call Bind at open; every field is optional (nil/empty disables the
// dependent statistic). The Trace function re-runs the query, traced,
// through the pipeline it was served on but below the layer that records
// — LiveStore binds the core index's ExecuteWith, ShardedStore its
// router's pipeline under the recording wrapper — so a captured exemplar
// is a trace of the query as asked (grouped queries included) and never
// re-records into the collector. It runs inside Record, on the goroutine
// that served the slow query: at most one re-execution per traceInterval
// per collector.
type Binding struct {
	DimNames           []string
	DomainLo, DomainHi []int64
	Rows               func() uint64
	Trace              func(query.Query) *obs.QueryTrace
}

// BindingOf builds the Binding of a table held in one store, or split
// across several with the same columns (a dimension's domain is then the
// union of theirs); rows and trace become Binding.Rows and Binding.Trace.
func BindingOf(rows func() uint64, trace func(query.Query) *obs.QueryTrace, stores ...*colstore.Store) Binding {
	b := Binding{DimNames: stores[0].Names(), Rows: rows, Trace: trace}
	b.DomainLo = make([]int64, stores[0].NumDims())
	b.DomainHi = make([]int64, stores[0].NumDims())
	for d := range b.DomainLo {
		b.DomainLo[d], b.DomainHi[d] = stores[0].MinMax(d)
		for _, st := range stores[1:] {
			lo, hi := st.MinMax(d)
			b.DomainLo[d] = min(b.DomainLo[d], lo)
			b.DomainHi[d] = max(b.DomainHi[d], hi)
		}
	}
	return b
}

// sloState is one objective's always-on counter: only a query slower
// than the objective writes it; Snapshot derives the good count from the
// query count.
type sloState struct {
	thrNs  int64
	target float64
	bad    atomic.Uint64
}

// item is one recorded query on its way into the sampled statistics.
type item struct {
	q                       query.Query
	ns                      int64
	matched, scanned, bytes uint64
	slow, sampled           bool
}

// Collector gathers workload statistics from the serving hot path. A nil
// *Collector is a valid no-op (every method checks), mirroring the
// nil-registry contract of internal/obs. Record is safe from any number
// of goroutines and never blocks: the always-on portion is a few atomics,
// and a sampled or slow query folds into the stateful portion under
// mu.TryLock — contention drops the sample and counts it. The one
// counter every query writes is striped, so concurrent recorders share
// no cache line.
type Collector struct {
	sampleEvery uint64 // the sampleEvery constant; tests set 1 for determinism

	// Hot-path state: the query count, and atomics that only slow,
	// sampled or dropped queries write.
	queries   *obs.Counter
	slowSeen  atomic.Uint64
	dropped   atomic.Uint64
	slowThrNs atomic.Int64
	slo       []sloState

	// mu guards the sampled statistics. Record only ever tries it;
	// Snapshot and Bind (scrapes, stats commands, open) take it outright.
	mu       sync.Mutex
	binding  Binding
	sketch   *spaceSaving
	dims     map[int]*dimStats
	lat      latHist
	sampled  uint64
	rowsNow  uint64 // cached binding.Rows(), refreshed periodically
	slowRing []SlowEntry
	slowPos  int
	slowN    int
	lastTr   time.Time
}

// dimStats accumulates per-dimension filter statistics from the sampled
// stream.
type dimStats struct {
	filters, eq, ge, le, rng, open uint64
	// loHist/hiHist bucket present bound values by normalized position in
	// the dimension's domain (needs a Binding with domains).
	loHist, hiHist [posBuckets]uint64
	// widthSum accumulates bounded ranges' widths as domain fractions.
	widthSum float64
	widthN   uint64
	// Selectivity (matched/rows) is attributed per dimension only for
	// single-filter queries, where it is unambiguous. selLog buckets
	// -log2(selectivity): selLog[0] is sel > 1/2, selLog[31] ~ 2^-32,
	// selLog[32] catches zero-match queries.
	selLog [selBuckets]uint64
	selSum float64
	selN   uint64
}

const (
	posBuckets = 16
	selBuckets = 33
)

// New returns a Collector. It owns no goroutine and nothing to release.
func New(cfg Config) *Collector {
	if cfg.Objectives == nil {
		cfg.Objectives = []Objective{
			{Latency: time.Millisecond, Target: 0.99},
			{Latency: 10 * time.Millisecond, Target: 0.999},
		}
	}
	c := &Collector{
		sampleEvery: sampleEvery,
		queries:     obs.NewCounter(),
		slo:         make([]sloState, len(cfg.Objectives)),
		sketch:      newSpaceSaving(topK),
		dims:        make(map[int]*dimStats),
		slowRing:    make([]SlowEntry, slowLogSize),
	}
	for i, o := range cfg.Objectives {
		c.slo[i].thrNs = int64(o.Latency)
		c.slo[i].target = o.Target
	}
	return c
}

// Bind attaches store context (see Binding). Call before or during
// serving; statistics depending on missing fields simply stay empty.
func (c *Collector) Bind(b Binding) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.binding = b
	if b.Rows != nil {
		c.rowsNow = b.Rows()
	}
	c.mu.Unlock()
}

// Record accounts one served query: its shape, latency, result size, and
// scan volume. Safe for concurrent use; never blocks; no-op on nil.
func (c *Collector) Record(q query.Query, d time.Duration, matched, scanned, bytes uint64) {
	if c == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// The query counter's stripe sequence picks the sampled queries: 1 in
	// sampleEvery of each stripe's.
	sampled := c.queries.Inc()%c.sampleEvery == 0
	for i := range c.slo {
		if ns > c.slo[i].thrNs {
			c.slo[i].bad.Add(1)
		}
	}
	slow := false
	if thr := c.slowThrNs.Load(); thr > 0 && ns >= thr {
		slow = true
		c.slowSeen.Add(1)
	}
	if !sampled && !slow {
		return
	}
	if !c.mu.TryLock() {
		c.dropped.Add(1)
		return
	}
	defer c.mu.Unlock()
	c.apply(item{q: q, ns: ns, matched: matched, scanned: scanned, bytes: bytes, slow: slow, sampled: sampled})
}

// Close is a no-op: a Collector holds nothing to release. The method stays
// only for its two callers in the frozen benchmark module,
// benchmark/stack.go:181 and benchmark/trace.go:377.
func (c *Collector) Close() {}

// apply folds one item into the sampled statistics; the caller holds mu.
func (c *Collector) apply(it item) {
	if it.sampled {
		c.sampled++
		c.lat.record(it.ns)
		names := c.binding.DimNames
		c.sketch.observe(Key(it.q), it.ns, func() string { return Shape(it.q, names) })
		c.applyDims(it)
		// Periodically re-arm the adaptive slow threshold and refresh the
		// cached row count (both too costly per item, both slow-moving).
		if c.sampled%32 == 0 || (c.slowThrNs.Load() == 0 && c.sampled == minSamples) {
			c.refreshThreshold()
			if c.binding.Rows != nil {
				c.rowsNow = c.binding.Rows()
			}
		}
	}
	if it.slow {
		c.applySlow(it)
	}
}

func (c *Collector) refreshThreshold() {
	if c.lat.total < minSamples {
		return
	}
	thr := int64(float64(c.lat.quantile(0.99)) * slowFactor)
	if thr < 1 {
		thr = 1
	}
	c.slowThrNs.Store(thr)
}

func (c *Collector) applyDims(it item) {
	for _, f := range it.q.Filters {
		d := c.dims[f.Dim]
		if d == nil {
			d = &dimStats{}
			c.dims[f.Dim] = d
		}
		d.filters++
		cls := classOf(f)
		switch cls {
		case classEq:
			d.eq++
		case classGe:
			d.ge++
		case classLe:
			d.le++
		case classRange:
			d.rng++
		default:
			d.open++
		}
		lo, hi, okDom := c.domain(f.Dim)
		if okDom {
			if f.Lo != query.NoLo {
				d.loHist[posBucket(f.Lo, lo, hi)]++
			}
			if f.Hi != query.NoHi {
				d.hiHist[posBucket(f.Hi, lo, hi)]++
			}
			if cls == classRange {
				width := float64(uint64(f.Hi)-uint64(f.Lo)) + 1
				if span := float64(uint64(hi)-uint64(lo)) + 1; span > 0 {
					frac := width / span
					if frac > 1 {
						frac = 1
					}
					d.widthSum += frac
					d.widthN++
				}
			}
		}
	}
	if len(it.q.Filters) == 1 && c.rowsNow > 0 {
		d := c.dims[it.q.Filters[0].Dim]
		sel := float64(it.matched) / float64(c.rowsNow)
		if sel > 1 {
			sel = 1
		}
		d.selSum += sel
		d.selN++
		d.selLog[selBucket(sel)]++
	}
}

func (c *Collector) domain(dim int) (lo, hi int64, ok bool) {
	b := c.binding
	if dim < 0 || dim >= len(b.DomainLo) || dim >= len(b.DomainHi) {
		return 0, 0, false
	}
	lo, hi = b.DomainLo[dim], b.DomainHi[dim]
	return lo, hi, hi > lo
}

// posBucket maps a bound value to its normalized position bucket within
// [lo, hi]; out-of-domain values clamp to the edge buckets.
func posBucket(v, lo, hi int64) int {
	if v <= lo {
		return 0
	}
	if v >= hi {
		return posBuckets - 1
	}
	frac := float64(uint64(v)-uint64(lo)) / float64(uint64(hi)-uint64(lo))
	b := int(frac * posBuckets)
	if b >= posBuckets {
		b = posBuckets - 1
	}
	return b
}

func selBucket(sel float64) int {
	if sel <= 0 {
		return selBuckets - 1
	}
	b := int(math.Floor(-math.Log2(sel)))
	if b < 0 {
		b = 0
	}
	if b >= selBuckets {
		b = selBuckets - 1
	}
	return b
}

func (c *Collector) applySlow(it item) {
	e := SlowEntry{
		When:    time.Now(),
		Query:   it.q.String(),
		Seconds: float64(it.ns) / 1e9,
		Matched: it.matched,
		Rows:    it.scanned,
		Bytes:   it.bytes,
	}
	// Exemplar traces re-execute the query through the bound non-recording
	// trace path; rate-limit so a burst of slow queries costs one capture.
	if tr := c.binding.Trace; tr != nil {
		now := time.Now()
		if c.lastTr.IsZero() || now.Sub(c.lastTr) >= traceInterval {
			c.lastTr = now
			if t := tr(it.q); t != nil {
				e.Trace = t.String()
			}
		}
	}
	c.slowRing[c.slowPos] = e
	c.slowPos = (c.slowPos + 1) % len(c.slowRing)
	if c.slowN < len(c.slowRing) {
		c.slowN++
	}
}
