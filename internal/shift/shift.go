// Package shift implements the workload-shift detection the paper leaves
// as future work (§8): Tsunami "could detect when an existing query type
// disappears, a new query type appears, or when the relative frequencies
// of query types change". The Detector fingerprints the sample workload an
// index was optimized for — query types keyed by filtered-dimension set
// with selectivity-embedding centroids — then watches the live query
// stream over a sliding window and reports when re-optimization is
// warranted. Embeddings are read off a sorted row sample (index.Sample),
// so observing a query costs two binary searches per filter and can run
// on the goroutine that served it.
package shift

import (
	"math"

	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/index"
	"repro/internal/query"
)

const (
	// windowSize is the number of recent queries compared against the
	// optimized workload. Analyze reports nothing until half a window has
	// been observed.
	windowSize = 256
	// novelFracThreshold triggers when this fraction of the window matches
	// no known query type.
	novelFracThreshold = 0.25
	// freqDriftThreshold triggers when the total variation distance
	// between the optimized and observed type-frequency distributions
	// exceeds it.
	freqDriftThreshold = 0.35
)

// typeProfile is one optimized query type: its filtered dimensions, in
// filter order, and the centroid of its selectivity embeddings.
type typeProfile struct {
	dims     []int
	centroid []float64
	baseFreq float64 // fraction of the optimized workload
}

// observation is one window slot: a served query and its matched type
// (-1 = novel).
type observation struct {
	q  query.Query
	ty int
}

// Detector watches a query stream for drift from the optimized workload.
// It keeps a sample of the table's values, not the table. A Detector is
// not safe for concurrent use.
type Detector struct {
	sample   *index.Sample
	profiles []typeProfile
	emb      []float64 // Observe's embedding scratch

	// Sliding window of observations.
	window []observation
	pos    int
	filled bool
	seen   int
}

// NewDetector fingerprints the workload the index over st was optimized
// for. Queries are clustered into types exactly as the Grid Tree does
// (§4.3.1).
func NewDetector(st *colstore.Store, optimized []query.Query) *Detector {
	d := &Detector{sample: index.NewSample(st, 2000)}
	typed, numTypes := gridtree.ClusterQueryTypes(d.sample, optimized)

	sums := make(map[int][]float64)
	counts := make(map[int]int)
	dims := make(map[int][]int)
	for _, q := range typed {
		emb := d.embed(q, nil)
		if s := sums[q.Type]; s == nil {
			sums[q.Type] = append([]float64(nil), emb...)
		} else {
			for i := range s {
				s[i] += emb[i]
			}
		}
		counts[q.Type]++
		dims[q.Type] = q.FilteredDims()
	}
	for ty := 0; ty < numTypes; ty++ {
		n := counts[ty]
		if n == 0 {
			continue
		}
		c := sums[ty]
		for i := range c {
			c[i] /= float64(n)
		}
		d.profiles = append(d.profiles, typeProfile{
			dims:     dims[ty],
			centroid: c,
			baseFreq: float64(n) / float64(len(typed)),
		})
	}
	d.window = make([]observation, windowSize)
	return d
}

// embed appends q's per-filtered-dimension selectivity embedding to dst.
func (d *Detector) embed(q query.Query, dst []float64) []float64 {
	for _, f := range q.Filters {
		dst = append(dst, d.sample.Selectivity(f))
	}
	return dst
}

// Observe records one live query and returns its matched type index, or
// -1 if it matches no optimized type. It does not allocate.
func (d *Detector) Observe(q query.Query) int {
	ty := d.match(q)
	d.window[d.pos] = observation{q: q, ty: ty}
	d.pos++
	if d.pos == len(d.window) {
		d.pos = 0
		d.filled = true
	}
	d.seen++
	return ty
}

// match assigns a query to the nearest profile with the same dimension set
// within the clustering radius, or -1.
func (d *Detector) match(q query.Query) int {
	d.emb = d.embed(q, d.emb[:0])
	emb := d.emb
	best, bestDist := -1, gridtree.TypeEps
	for i, p := range d.profiles {
		if !sameDims(p.dims, q.Filters) {
			continue
		}
		dist := 0.0
		for k := range emb {
			dd := emb[k] - p.centroid[k]
			dist += dd * dd
		}
		dist = math.Sqrt(dist)
		if dist <= bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// sameDims reports whether filters filter exactly dims, in that order.
func sameDims(dims []int, filters []query.Filter) bool {
	if len(dims) != len(filters) {
		return false
	}
	for i, f := range filters {
		if f.Dim != dims[i] {
			return false
		}
	}
	return true
}

// Report summarizes the window.
type Report struct {
	// NovelFrac is the fraction of the window matching no optimized type.
	NovelFrac float64
	// FreqDrift is the total variation distance between the optimized and
	// observed type-frequency distributions.
	FreqDrift float64
	// MissingTypes lists optimized types absent from the window.
	MissingTypes []int
	// ShiftDetected reports whether either threshold was crossed.
	ShiftDetected bool
}

// Analyze inspects the current window.
func (d *Detector) Analyze() Report {
	n := len(d.window)
	if !d.filled {
		n = d.pos
	}
	var rep Report
	if n == 0 || d.seen < windowSize/2 {
		return rep
	}
	counts := make([]int, len(d.profiles))
	novel := 0
	for _, o := range d.window[:n] {
		if o.ty < 0 {
			novel++
		} else {
			counts[o.ty]++
		}
	}
	rep.NovelFrac = float64(novel) / float64(n)
	// Total variation distance between base and observed frequencies,
	// with novel queries counted as mass on a fresh type.
	tv := rep.NovelFrac
	for i, p := range d.profiles {
		obs := float64(counts[i]) / float64(n)
		tv += math.Abs(obs - p.baseFreq)
		if counts[i] == 0 {
			rep.MissingTypes = append(rep.MissingTypes, i)
		}
	}
	rep.FreqDrift = tv / 2
	rep.ShiftDetected = rep.NovelFrac > novelFracThreshold || rep.FreqDrift > freqDriftThreshold
	return rep
}

// Recent returns the window's queries, oldest first: the workload to
// re-optimize for when Analyze reports a shift.
func (d *Detector) Recent() []query.Query {
	n, start := d.pos, 0
	if d.filled {
		n, start = len(d.window), d.pos
	}
	out := make([]query.Query, n)
	for i := range out {
		out[i] = d.window[(start+i)%len(d.window)].q
	}
	return out
}

// NumTypes returns the number of fingerprinted query types.
func (d *Detector) NumTypes() int { return len(d.profiles) }
