// Package zindex implements the Z-order index baseline (§6.1): points are
// ordered by their Z-value (bit-interleaved quantized coordinates) and
// grouped into fixed-size pages. Each page keeps per-dimension min/max
// metadata, letting queries skip irrelevant pages, exactly as the paper
// describes.
//
// Coordinates are quantized to equi-depth ranks before interleaving so the
// curve is balanced even on skewed columns; the total Z-value is at most 64
// bits (bits per dimension = 64/d, at least 1).
package zindex

import (
	"sort"
	"time"

	"repro/internal/cdfmodel"
	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// Index is a clustered Z-order index.
type Index struct {
	store    *colstore.Store
	pageSize int
	bits     uint // bits per dimension

	// quantizer: per-dim boundary values for 2^bits equi-depth buckets.
	bounds [][]int64

	pages []page
	stats index.BuildStats
}

type page struct {
	start, end int // physical range
	zmin, zmax uint64
	lo, hi     []int64 // per-dim min/max metadata
}

// Build constructs the Z-order index over a reordered copy of s, with
// pageSize points per page (pageSize <= 0 uses 4096).
func Build(s *colstore.Store, pageSize int) *Index {
	if pageSize <= 0 {
		pageSize = 4096
	}
	d := s.NumDims()
	bits := uint(64 / d)
	if bits == 0 {
		bits = 1
	}
	if bits > 16 {
		bits = 16
	}
	x := &Index{pageSize: pageSize, bits: bits}

	optStart := time.Now()
	// Equi-depth quantizer per dimension from a sample CDF.
	x.bounds = make([][]int64, d)
	for j := 0; j < d; j++ {
		m := cdfmodel.NewSample(s.Column(j), 1<<bits+1)
		x.bounds[j] = cdfmodel.Boundaries(m, 1<<bits)
	}
	x.stats.OptimizeSeconds = time.Since(optStart).Seconds()

	sortStart := time.Now()
	n := s.NumRows()
	zvals := make([]uint64, n)
	row := make([]int64, d)
	for i := 0; i < n; i++ {
		s.Row(i, row)
		zvals[i] = x.zvalue(row)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return zvals[perm[a]] < zvals[perm[b]] })
	x.store = s.Gather(perm, nil)

	// Build pages with metadata over the reordered data.
	sortedZ := make([]uint64, n)
	for i, p := range perm {
		sortedZ[i] = zvals[p]
	}
	for start := 0; start < n; start += pageSize {
		end := start + pageSize
		if end > n {
			end = n
		}
		pg := page{start: start, end: end, zmin: sortedZ[start], zmax: sortedZ[end-1]}
		pg.lo = make([]int64, d)
		pg.hi = make([]int64, d)
		for j := 0; j < d; j++ {
			col := x.store.Column(j)
			lo, hi := col[start], col[start]
			for i := start + 1; i < end; i++ {
				if col[i] < lo {
					lo = col[i]
				}
				if col[i] > hi {
					hi = col[i]
				}
			}
			pg.lo[j], pg.hi[j] = lo, hi
		}
		x.pages = append(x.pages, pg)
	}
	x.stats.SortSeconds = time.Since(sortStart).Seconds()
	return x
}

// quantize maps a value in dimension j to its equi-depth rank in
// [0, 2^bits).
func (x *Index) quantize(j int, v int64) uint64 {
	b := x.bounds[j]
	// First boundary > v, minus one → bucket index.
	i := sort.Search(len(b), func(i int) bool { return b[i] > v }) - 1
	if i < 0 {
		i = 0
	}
	if max := (1 << x.bits) - 1; i > max {
		i = max
	}
	return uint64(i)
}

// zvalue interleaves the quantized coordinates of a row.
func (x *Index) zvalue(row []int64) uint64 {
	d := len(row)
	var z uint64
	for bit := uint(0); bit < x.bits; bit++ {
		for j := 0; j < d; j++ {
			q := x.quantize(j, row[j])
			z |= ((q >> bit) & 1) << (bit*uint(d) + uint(j))
		}
	}
	return z
}

// Name implements index.Index.
func (x *Index) Name() string { return "ZOrder" }

// BuildStats returns the build timing split.
func (x *Index) BuildStats() index.BuildStats { return x.stats }

// Execute implements index.Index: Plan, then scan the plan.
func (x *Index) Execute(q query.Query) colstore.ScanResult {
	return x.Plan(q, index.Exec{}).Execute()
}

// Plan implements index.Index: restrict to pages whose Z-range overlaps
// the query rectangle's Z-range, then use per-page min/max metadata to
// skip. Pages and quantizer are immutable after Build and the corner
// buffers are per-call, so Plan is safe for concurrent callers sharing
// one index.
func (x *Index) Plan(q query.Query, _ index.Exec) index.Plan {
	p := index.NewRangePlan(x.store, q)
	d := x.store.NumDims()
	loCorner := make([]int64, d)
	hiCorner := make([]int64, d)
	for j := 0; j < d; j++ {
		loCorner[j], hiCorner[j] = x.bounds[j][0], x.bounds[j][len(x.bounds[j])-1]
	}
	for _, f := range q.Filters {
		if f.Lo > loCorner[f.Dim] {
			loCorner[f.Dim] = f.Lo
		}
		if f.Hi < hiCorner[f.Dim] {
			hiCorner[f.Dim] = f.Hi
		}
	}
	zmin := x.zvalue(loCorner)
	zmax := x.zvalue(hiCorner)

	first := sort.Search(len(x.pages), func(i int) bool { return x.pages[i].zmax >= zmin })
	for i := first; i < len(x.pages); i++ {
		pg := &x.pages[i]
		if pg.zmin > zmax {
			break
		}
		if !q.IntersectsBox(pg.lo, pg.hi) {
			continue
		}
		p.Add(pg.start, pg.end, q.ContainsBox(pg.lo, pg.hi))
	}
	return p
}

// SizeBytes implements index.Index: quantizer boundaries plus per-page
// metadata (z-range + d min/max pairs).
func (x *Index) SizeBytes() uint64 {
	d := uint64(x.store.NumDims())
	qb := uint64(0)
	for _, b := range x.bounds {
		qb += uint64(len(b)) * 8
	}
	return qb + uint64(len(x.pages))*(32+16*d)
}
