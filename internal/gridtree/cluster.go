// Package gridtree implements the Grid Tree (§4): a lightweight k-ary
// space-partitioning decision tree that divides the data space into
// non-overlapping regions so that query skew — the Earth Mover's Distance
// between the empirical query PDF and the uniform distribution, summed per
// query type — is low inside every region.
package gridtree

import (
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/stats"
)

// ClusterQueryTypes groups queries into types (§4.3.1): queries filtering
// different dimension sets are always separate types; within a set, queries
// are embedded by per-dimension filter selectivity on the sample and
// clustered with DBSCAN (eps TypeEps). It returns a copy of the queries
// with Type assigned, plus the number of types.
func ClusterQueryTypes(sample *index.Sample, queries []query.Query) ([]query.Query, int) {
	out := make([]query.Query, len(queries))
	copy(out, queries)

	groups := make(map[string][]int)
	for i, q := range out {
		groups[q.DimSetKey()] = append(groups[q.DimSetKey()], i)
	}

	nextType := 0
	for _, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		dims := out[idxs[0]].FilteredDims()
		emb := make([][]float64, len(idxs))
		for k, qi := range idxs {
			e := make([]float64, len(dims))
			for di, dim := range dims {
				f, _ := out[qi].Filter(dim)
				e[di] = sample.Selectivity(f)
			}
			emb[k] = e
		}
		labels := stats.DBSCAN(emb, TypeEps, 2)
		for k, qi := range idxs {
			out[qi].Type = nextType + labels[k]
		}
		nextType += stats.NumClusters(labels)
	}
	return out, nextType
}
