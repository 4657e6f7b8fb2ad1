package gridtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/colstore"
	"repro/internal/query"
)

// TestTreePropertiesUnderRandomWorkloads drives the Grid Tree with random
// data and workloads and checks structural invariants that must hold for
// any input: regions partition the rows, every region's box contains its
// rows, FindRegions routes every matching row somewhere, and the node
// budget holds.
func TestTreePropertiesUnderRandomWorkloads(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2000 + rng.Intn(6000)
		d := 2 + rng.Intn(3)
		cols := make([][]int64, d)
		for j := range cols {
			cols[j] = make([]int64, n)
			span := int64(1) << uint(4+rng.Intn(28))
			for i := range cols[j] {
				cols[j][i] = rng.Int63n(span) - span/2
			}
		}
		st, err := colstore.FromColumns(cols, nil)
		if err != nil {
			return false
		}
		var qs []query.Query
		numQ := 30 + rng.Intn(120)
		for i := 0; i < numQ; i++ {
			j := rng.Intn(d)
			lo, hi := st.MinMax(j)
			span := hi - lo
			a := lo + rng.Int63n(span+1)
			w := span / int64(4+rng.Intn(40))
			q := query.NewCount(query.Filter{Dim: j, Lo: a, Hi: a + w})
			q.Type = i % 3
			qs = append(qs, q)
		}
		tree := Build(st, qs, Config{MinPointsFloor: 64})

		if tree.NumNodes > maxNodes || tree.Depth > maxDepth {
			t.Logf("seed %d: %d nodes, depth %d: over budget", seed, tree.NumNodes, tree.Depth)
			return false
		}
		// Partition invariant.
		seen := make([]bool, n)
		total := 0
		for _, r := range tree.Regions {
			total += len(r.Rows)
			for _, row := range r.Rows {
				if seen[row] {
					t.Logf("seed %d: row %d duplicated", seed, row)
					return false
				}
				seen[row] = true
				for j := 0; j < d; j++ {
					v := st.Value(row, j)
					if v < r.Lo[j] || v > r.Hi[j] {
						t.Logf("seed %d: row %d outside region box", seed, row)
						return false
					}
				}
			}
		}
		if total != n {
			t.Logf("seed %d: regions cover %d of %d rows", seed, total, n)
			return false
		}
		// Routing invariant on a few probes.
		for k := 0; k < 10; k++ {
			q := qs[rng.Intn(len(qs))]
			regions := tree.FindRegions(q, nil)
			covered := make(map[int]bool)
			for _, r := range regions {
				covered[r.ID] = true
			}
			for _, r := range tree.Regions {
				if covered[r.ID] {
					continue
				}
				// Unreturned regions must contain no matching rows.
				for _, row := range r.Rows {
					match := true
					for _, f := range q.Filters {
						v := st.Value(row, f.Dim)
						if v < f.Lo || v > f.Hi {
							match = false
							break
						}
					}
					if match {
						t.Logf("seed %d: matching row %d in unrouted region %d", seed, row, r.ID)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
