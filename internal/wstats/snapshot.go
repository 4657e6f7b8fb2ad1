package wstats

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Snapshot is a point-in-time copy of every workload statistic, shaped
// for the /workloadz JSON endpoint (field tags are the documented wire
// schema; see README "Workload observability").
type Snapshot struct {
	// Queries counts every Record call; Sampled is how many of them
	// folded into the heavyweight statistics (1 in SampleEvery = 8); Dropped
	// counts sampled or slow queries that found the statistics busy.
	Queries     uint64 `json:"queries"`
	Sampled     uint64 `json:"sampled"`
	SampleEvery int    `json:"sample_every"`
	Dropped     uint64 `json:"dropped"`

	// Sampled latency quantiles — context for the adaptive slow threshold
	// (the registry's histograms remain the authoritative latency source).
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`

	Fingerprints []FingerprintStat `json:"fingerprints"`
	Dims         []DimStat         `json:"dims"`
	SLO          []SLOStat         `json:"slo"`

	// SlowThresholdSeconds is the current adaptive slow-query threshold
	// (0 until 64 queries have been sampled); SlowSeen counts
	// queries that exceeded it; Slow is the exemplar ring, newest first.
	SlowThresholdSeconds float64     `json:"slow_threshold_seconds"`
	SlowSeen             uint64      `json:"slow_seen"`
	Slow                 []SlowEntry `json:"slow"`
}

// FingerprintStat is one heavy-hitter sketch entry.
type FingerprintStat struct {
	Fingerprint string `json:"fingerprint"`
	Shape       string `json:"shape"`
	// Count estimates the fingerprint's occurrences in the sampled
	// stream; space-saving guarantees Count-ErrBound <= true <= Count.
	Count    uint64 `json:"count"`
	ErrBound uint64 `json:"err_bound,omitempty"`
	// Share is Count over the sampled stream length.
	Share      float64 `json:"share"`
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// DimStat is one filtered dimension's accumulated statistics.
type DimStat struct {
	Dim  int    `json:"dim"`
	Name string `json:"name,omitempty"`
	// Filter counts by bound class over the sampled stream.
	Filters   uint64 `json:"filters"`
	Eq        uint64 `json:"eq,omitempty"`
	LowerOnly uint64 `json:"lower_only,omitempty"`
	UpperOnly uint64 `json:"upper_only,omitempty"`
	Range     uint64 `json:"range,omitempty"`
	Unbounded uint64 `json:"unbounded,omitempty"`
	// MeanWidthFrac is bounded ranges' mean width as a fraction of the
	// dimension's domain.
	MeanWidthFrac float64 `json:"mean_width_frac,omitempty"`
	// LoBoundHist/HiBoundHist bucket observed bound values by normalized
	// position in the domain (16 buckets, low to high).
	LoBoundHist []uint64 `json:"lo_bound_hist,omitempty"`
	HiBoundHist []uint64 `json:"hi_bound_hist,omitempty"`
	// Observed result selectivity (matched rows / table rows), attributed
	// to this dimension from single-filter queries: the mean, the sample
	// count, and a histogram over -log2(selectivity) (bucket i covers
	// selectivities in (2^-(i+1), 2^-i]; the last bucket is zero-match).
	MeanSelectivity float64  `json:"mean_selectivity,omitempty"`
	SelSamples      uint64   `json:"sel_samples,omitempty"`
	SelLog2Hist     []uint64 `json:"sel_log2_hist,omitempty"`
}

// SLOStat is one latency objective's standing.
type SLOStat struct {
	LatencySeconds float64 `json:"latency_seconds"`
	Target         float64 `json:"target"`
	Good           uint64  `json:"good"`
	Bad            uint64  `json:"bad"`
	BadFrac        float64 `json:"bad_frac"`
	// BurnRate is BadFrac over the error budget (1-Target): 1.0 burns the
	// budget exactly, >1 burns it faster than the objective allows.
	BurnRate float64 `json:"burn_rate"`
}

// SlowEntry is one slow-query log exemplar.
type SlowEntry struct {
	When    time.Time `json:"when"`
	Query   string    `json:"query"`
	Seconds float64   `json:"seconds"`
	Matched uint64    `json:"matched"`
	Rows    uint64    `json:"rows_scanned"`
	Bytes   uint64    `json:"bytes_touched"`
	// Trace is the rendered exemplar explain-analyze trace, when one was
	// captured (rate-limited; empty otherwise).
	Trace string `json:"trace,omitempty"`
}

// Snapshot copies the current statistics. Safe from any goroutine; nil
// returns a zero snapshot. Every Record that has returned is in it.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Each objective's bad count is read before the query count: a query
	// is counted before it can be bad, so Good = Queries - Bad >= 0.
	slo := make([]SLOStat, len(c.slo))
	for i := range c.slo {
		slo[i].Bad = c.slo[i].bad.Load()
	}
	s := Snapshot{
		Queries:              c.queries.Load(),
		Sampled:              c.sampled,
		SampleEvery:          int(c.sampleEvery),
		Dropped:              c.dropped.Load(),
		P50Seconds:           float64(c.lat.quantile(0.50)) / 1e9,
		P99Seconds:           float64(c.lat.quantile(0.99)) / 1e9,
		SlowThresholdSeconds: float64(c.slowThrNs.Load()) / 1e9,
		SlowSeen:             c.slowSeen.Load(),
		// Non-nil so the list sections marshal as [] rather than null
		// before any query lands — /workloadz consumers see stable types.
		Fingerprints: []FingerprintStat{},
		Dims:         []DimStat{},
		SLO:          slo,
		Slow:         []SlowEntry{},
	}
	for _, e := range c.sketch.top(0) {
		fs := FingerprintStat{
			Fingerprint: fmt.Sprintf("%016x", uint64(e.key)),
			Shape:       e.shape,
			Count:       e.count,
			ErrBound:    e.errBound,
			P50Seconds:  float64(e.lat.quantile(0.50)) / 1e9,
			P99Seconds:  float64(e.lat.quantile(0.99)) / 1e9,
		}
		if c.sketch.n > 0 {
			fs.Share = float64(e.count) / float64(c.sketch.n)
		}
		s.Fingerprints = append(s.Fingerprints, fs)
	}
	for dim, d := range c.dims {
		ds := DimStat{
			Dim:       dim,
			Name:      dimNameOrEmpty(c.binding.DimNames, dim),
			Filters:   d.filters,
			Eq:        d.eq,
			LowerOnly: d.ge,
			UpperOnly: d.le,
			Range:     d.rng,
			Unbounded: d.open,
		}
		if d.widthN > 0 {
			ds.MeanWidthFrac = d.widthSum / float64(d.widthN)
		}
		if d.selN > 0 {
			ds.MeanSelectivity = d.selSum / float64(d.selN)
			ds.SelSamples = d.selN
			ds.SelLog2Hist = trimHist(d.selLog[:])
		}
		ds.LoBoundHist = trimHist(d.loHist[:])
		ds.HiBoundHist = trimHist(d.hiHist[:])
		s.Dims = append(s.Dims, ds)
	}
	sortDims(s.Dims)
	for i := range s.SLO {
		st := &s.SLO[i]
		st.LatencySeconds = float64(c.slo[i].thrNs) / 1e9
		st.Target = c.slo[i].target
		st.Good = s.Queries - st.Bad
		if total := s.Queries; total > 0 {
			st.BadFrac = float64(st.Bad) / float64(total)
		}
		if budget := 1 - st.Target; budget > 0 {
			st.BurnRate = st.BadFrac / budget
		}
	}
	// Slow ring, newest first.
	for i := 0; i < c.slowN; i++ {
		idx := (c.slowPos - 1 - i + len(c.slowRing)) % len(c.slowRing)
		s.Slow = append(s.Slow, c.slowRing[idx])
	}
	return s
}

func dimNameOrEmpty(names []string, dim int) string {
	if dim >= 0 && dim < len(names) {
		return names[dim]
	}
	return ""
}

// trimHist drops all-zero histograms from the JSON (copies otherwise —
// snapshots must not alias live collector state).
func trimHist(h []uint64) []uint64 {
	for _, v := range h {
		if v != 0 {
			return append([]uint64(nil), h...)
		}
	}
	return nil
}

func sortDims(ds []DimStat) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Dim < ds[j-1].Dim; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// HTTPHandler serves the collector's Snapshot as JSON — the /workloadz
// endpoint. A nil collector serves a zero snapshot, so the route can be
// mounted unconditionally.
func HTTPHandler(c *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.Snapshot())
	})
}
