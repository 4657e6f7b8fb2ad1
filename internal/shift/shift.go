// Package shift implements the workload-shift detection the paper leaves
// as future work (§8): Tsunami "could detect when an existing query type
// disappears, a new query type appears, or when the relative frequencies
// of query types change". The Detector fingerprints the sample workload an
// index was optimized for — query types keyed by filtered-dimension set
// with selectivity-embedding centroids — then watches the live query
// stream over a sliding window and reports when re-optimization is
// warranted.
package shift

import (
	"math"

	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/index"
	"repro/internal/query"
)

// Config tunes detection sensitivity; zero values take defaults.
type Config struct {
	// WindowSize is the number of recent queries compared against the
	// optimized workload (default 256). Analyze reports nothing until half
	// a window has been observed.
	WindowSize int
}

func (c *Config) fill() {
	if c.WindowSize <= 0 {
		c.WindowSize = 256
	}
}

const (
	// novelFracThreshold triggers when this fraction of the window matches
	// no known query type.
	novelFracThreshold = 0.25
	// freqDriftThreshold triggers when the total variation distance
	// between the optimized and observed type-frequency distributions
	// exceeds it.
	freqDriftThreshold = 0.35
)

// typeProfile is one optimized query type: its dimension set and the
// centroid of its selectivity embeddings.
type typeProfile struct {
	dimKey   string
	centroid []float64
	baseFreq float64 // fraction of the optimized workload
}

// Detector watches a query stream for drift from the optimized workload.
type Detector struct {
	cfg      Config
	st       *colstore.Store
	sample   []int
	profiles []typeProfile

	// Sliding window of type assignments; -1 = novel.
	window []int
	pos    int
	filled bool
	seen   int
}

// NewDetector fingerprints the workload the index was optimized for.
// Queries are clustered into types exactly as the Grid Tree does (§4.3.1).
func NewDetector(st *colstore.Store, optimized []query.Query, cfg Config) *Detector {
	cfg.fill()
	d := &Detector{cfg: cfg, st: st, sample: index.SampleRows(st.NumRows(), 2000)}
	typed, numTypes := gridtree.ClusterQueryTypes(st, optimized, gridtree.TypeEps)

	sums := make(map[int][]float64)
	counts := make(map[int]int)
	keys := make(map[int]string)
	for _, q := range typed {
		emb := d.embed(q)
		if s := sums[q.Type]; s == nil {
			sums[q.Type] = append([]float64(nil), emb...)
		} else {
			for i := range s {
				s[i] += emb[i]
			}
		}
		counts[q.Type]++
		keys[q.Type] = q.DimSetKey()
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
			dimKey:   keys[ty],
			centroid: c,
			baseFreq: float64(n) / float64(len(typed)),
		})
	}
	d.window = make([]int, cfg.WindowSize)
	return d
}

// embed computes the per-filtered-dimension selectivity embedding.
func (d *Detector) embed(q query.Query) []float64 {
	out := make([]float64, len(q.Filters))
	for i, f := range q.Filters {
		out[i] = index.SampleSelectivity(d.st, d.sample, f)
	}
	return out
}

// Observe records one live query and returns its matched type index, or
// -1 if it matches no optimized type.
func (d *Detector) Observe(q query.Query) int {
	ty := d.match(q)
	d.window[d.pos] = ty
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
	key := q.DimSetKey()
	emb := d.embed(q)
	best, bestDist := -1, gridtree.TypeEps
	for i, p := range d.profiles {
		if p.dimKey != key || len(p.centroid) != len(emb) {
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
	if n == 0 || d.seen < d.cfg.WindowSize/2 {
		return rep
	}
	counts := make([]int, len(d.profiles))
	novel := 0
	for i := 0; i < n; i++ {
		if d.window[i] < 0 {
			novel++
		} else {
			counts[d.window[i]]++
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

// NumTypes returns the number of fingerprinted query types.
func (d *Detector) NumTypes() int { return len(d.profiles) }
