// Package obs is the repository's observability core: allocation-free
// atomic counters, gauges, and log-bucketed latency histograms behind a
// named registry, with Prometheus text exposition, a JSON /statsz view,
// and snapshot/diff support for the bench harness.
//
// The package is deliberately dependency-free (stdlib only) and designed
// for the serving hot path: recording a counter or histogram observation
// is a handful of atomic adds with no allocation, no lock, and no map
// lookup (components resolve their instruments once at construction and
// keep the pointers). Hot instruments are striped across padded per-CPU
// cells so concurrent recorders on different cores do not ping-pong one
// cache line — the same false-sharing discipline the scan kernels apply
// to data now applied to the telemetry that watches them. Reads (scrapes,
// Stats, bench snapshots) sum the stripes; they are lock-free and may run
// concurrently with any number of writers.
//
// Everything a store or executor measures lands in a *Registry the caller
// supplies (see live.Config.Metrics, sharded.Config.Metrics,
// ExecutorOptions.Metrics); a nil registry disables instrumentation
// entirely. Handler exposes a registry over HTTP as Prometheus
// /metrics, JSON /statsz, and net/http/pprof.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// numStripes is the stripe count hot instruments spread their cells over:
// the next power of two covering GOMAXPROCS, capped at 8 (beyond that the
// summation cost on every scrape outweighs contention wins). Fixed at
// init so stripe masks are constants on the record path; on a
// GOMAXPROCS=1 box it collapses to one stripe and striping costs nothing.
var numStripes = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 8 {
		n <<= 1
	}
	return n
}()

// cell is one padded counter stripe: the value plus enough padding that
// two adjacent cells never share a 64-byte cache line.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// stripeFor picks the calling goroutine's stripe. Go exposes no CPU or
// goroutine id, so this hashes the address of a stack variable: goroutine
// stacks live in distinct allocations, which spreads concurrent
// goroutines across stripes, and a goroutine keeps its stripe for as long
// as its stack stays put (a stack move just re-hashes — correctness never
// depends on stability). The pointer is only ever converted *to* uintptr,
// which does not escape, so the record path stays allocation-free.
func stripeFor(mask uint32) uint32 {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	h := uint64(p) * 0x9E3779B97F4A7C15 // Fibonacci hashing mixes the low page bits up
	return uint32(h>>33) & mask
}

// Counter is a monotonically increasing striped counter. The zero value
// is NOT usable; get one from Registry.Counter, or from NewCounter for a
// count a component keeps for itself (and may register with
// Registry.CounterFunc).
type Counter struct {
	stripes []cell
	mask    uint32
}

// NewCounter returns a counter outside any registry.
func NewCounter() *Counter {
	return &Counter{stripes: make([]cell, numStripes), mask: uint32(numStripes - 1)}
}

// Add increments the counter by n. Safe and contention-striped for any
// number of concurrent callers; allocation-free.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.stripes[stripeFor(c.mask)].v.Add(n)
}

// Inc increments the counter by one and returns the new value of the
// caller's stripe: a sequence per stripe, so every stripe's n-th
// increment sees n. A caller that acts on every k-th query (1-in-k
// sampling) tests that value, and acts on 1 in k of each stripe's
// increments without a shared sequence. 0 on a nil counter.
func (c *Counter) Inc() uint64 {
	if c == nil {
		return 0
	}
	return c.stripes[stripeFor(c.mask)].v.Add(1)
}

// Load sums the stripes. Concurrent adds may or may not be included; the
// value is always a valid point between the call's start and end.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

// processStart anchors Mono: a time.Time that carries a monotonic reading.
var processStart = time.Now()

// Mono is the monotonic time since the process started, in one clock
// read: time.Since of a time carrying a monotonic reading reads only the
// monotonic clock, where time.Now reads the wall clock too. A served
// query takes its start from Mono and its latency as Mono() - start, so
// timing it costs two clock reads.
func Mono() time.Duration { return time.Since(processStart) }

// QueryMetrics bundles the conventional query-path instruments every
// serving layer records — end-to-end latency, and the rows and bytes its
// scans touched (riding ScanResult.PointsScanned and
// ScanResult.BytesTouched) — under the shared metric names, so the CLI,
// the /metrics endpoint, and the bench harness read one schema regardless
// of whether queries ran against a plain index, a LiveStore epoch, or a
// shard. NewQueryMetrics on a nil registry returns nil, and a nil
// *QueryMetrics ignores observations, so callers need no branches. The
// query count (MQueries) is not here: the store that serves a query
// already counts it, and registers that count with CounterFunc.
type QueryMetrics struct {
	latency *Histogram
	rows    *Counter
	bytes   *Counter
}

// NewQueryMetrics resolves the query-path instruments in r (creating them
// on first use). A nil r yields a nil, no-op QueryMetrics.
func NewQueryMetrics(r *Registry) *QueryMetrics {
	if r == nil {
		return nil
	}
	return &QueryMetrics{
		latency: r.DurationHistogram(MQueryLatency),
		rows:    r.Counter(MScanRows),
		bytes:   r.Counter(MScanBytes),
	}
}

// Observe records one answered query. A query that scanned nothing (a
// cache hit) adds nothing to the rows and bytes counters.
func (m *QueryMetrics) Observe(d time.Duration, rowsScanned, bytesTouched uint64) {
	if m == nil {
		return
	}
	m.latency.RecordDuration(d)
	if rowsScanned != 0 {
		m.rows.Add(rowsScanned)
	}
	if bytesTouched != 0 {
		m.bytes.Add(bytesTouched)
	}
}
