package obs

import "sync"

// Registry is a named collection of instruments. Get-or-create lookups
// (Counter, Histogram, ...) take a short lock but happen once per
// component at construction; the instruments they return are then
// recorded to lock-free. A component that already counts something for
// its own Stats registers that count with CounterFunc or GaugeFunc
// instead, so the fact is counted once. One Registry is typically shared
// by every layer of a serving stack — Executor, LiveStore or
// ShardedStore, CLI — so a single /metrics endpoint sees the whole
// system.
//
// A nil *Registry is valid everywhere and disables instrumentation: all
// lookup methods return nil, and nil instruments ignore operations.
type Registry struct {
	mu           sync.RWMutex
	counters     map[string]*Counter
	counterFuncs map[string][]func() uint64
	gaugeFuncs   map[string]func() float64
	hists        map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		counterFuncs: make(map[string][]func() uint64),
		gaugeFuncs:   make(map[string]func() float64),
		hists:        make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers fn as a source of the named counter, read at
// snapshot/scrape time: fn returns a monotonic count its component
// already keeps. Registrations accumulate, and the counter reads the sum
// of every source registered under the name (plus the Counter of that
// name, if any), so the shards of a store sharing one registry aggregate
// into one series. The registry keeps fn, and what it reads, for its own
// lifetime: a component closed while the registry lives stays in the sum,
// so the series never goes backwards. fn must be safe to call
// concurrently with the component it reads.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counterFuncs[name] = append(r.counterFuncs[name], fn)
	r.mu.Unlock()
}

// GaugeFunc registers fn as the named gauge's value source, evaluated at
// snapshot/scrape time. Re-registering a name replaces the previous
// function: a store reopened on the same registry (recovered from a
// snapshot, say) overwrites its predecessor's stale closure. fn must be
// safe to call concurrently with the component it reads.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named raw-value histogram (Scale 1), creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.histogram(name, 1)
}

// DurationHistogram returns the named latency histogram, creating it on
// first use. Observations are recorded in nanoseconds and exposed in
// seconds (Scale 1e-9), per Prometheus convention for *_seconds names.
func (r *Registry) DurationHistogram(name string) *Histogram {
	return r.histogram(name, 1e-9)
}

func (r *Registry) histogram(name string, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(scale)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// Counter and gauge functions are evaluated at capture; histogram
// snapshots are mergeable and subtractable, which is what the bench
// harness uses to turn two scrapes into an interval's p99.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]float64
	Hists    map[string]HistSnapshot
}

// Snapshot captures the registry. Safe to call concurrently with any
// recording; each instrument is read atomically (the set as a whole is
// not one atomic cut, which scraping never needs).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]float64),
		Hists:    make(map[string]HistSnapshot),
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	counterFuncs := make(map[string][]func() uint64, len(r.counterFuncs))
	for n, fns := range r.counterFuncs {
		counterFuncs[n] = fns
	}
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		funcs[n] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	// Instrument reads happen outside the registry lock: counter and gauge
	// functions may call back into store internals that must not nest
	// under it.
	for n, c := range counters {
		snap.Counters[n] = c.Load()
	}
	for n, fns := range counterFuncs {
		for _, fn := range fns {
			snap.Counters[n] += fn()
		}
	}
	for n, fn := range funcs {
		snap.Gauges[n] = fn()
	}
	for n, h := range hists {
		snap.Hists[n] = h.Snapshot()
	}
	return snap
}

// Diff returns the interval between an earlier snapshot old and s:
// counters subtract (saturating at zero), histograms subtract
// bucket-wise, gauges keep their current (s) value — a gauge is a level,
// not a flow.
func (s Snapshot) Diff(old Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]float64, len(s.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for n, v := range s.Counters {
		if prev := old.Counters[n]; prev < v {
			out.Counters[n] = v - prev
		} else {
			out.Counters[n] = 0
		}
	}
	for n, v := range s.Gauges {
		out.Gauges[n] = v
	}
	for n, h := range s.Hists {
		if prev, ok := old.Hists[n]; ok {
			out.Hists[n] = h.Sub(prev)
		} else {
			out.Hists[n] = h
		}
	}
	return out
}
