// Package gridtree implements the Grid Tree (§4): a lightweight k-ary
// space-partitioning decision tree that divides the data space into
// non-overlapping regions so that query skew — the Earth Mover's Distance
// between the empirical query PDF and the uniform distribution, summed per
// query type — is low inside every region.
package gridtree

import (
	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/stats"
)

// ClusterQueryTypes groups queries into types (§4.3.1): queries filtering
// different dimension sets are always separate types; within a set, queries
// are embedded by per-dimension filter selectivity and clustered with
// DBSCAN (eps 0.2). It returns a copy of the queries with Type assigned,
// plus the number of types.
func ClusterQueryTypes(st *colstore.Store, queries []query.Query, eps float64) ([]query.Query, int) {
	if eps <= 0 {
		eps = 0.2
	}
	out := make([]query.Query, len(queries))
	copy(out, queries)

	groups := make(map[string][]int)
	for i, q := range out {
		groups[q.DimSetKey()] = append(groups[q.DimSetKey()], i)
	}

	sample := index.SampleRows(st.NumRows(), 2000)
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
				e[di] = index.SampleSelectivity(st, sample, f)
			}
			emb[k] = e
		}
		labels := stats.DBSCAN(emb, eps, 2)
		for k, qi := range idxs {
			out[qi].Type = nextType + labels[k]
		}
		nextType += stats.NumClusters(labels)
	}
	return out, nextType
}
