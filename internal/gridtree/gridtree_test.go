package gridtree

import (
	"testing"

	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/testutil"
)

func TestClusterQueryTypesSeparatesDimSets(t *testing.T) {
	st := testutil.SmallTaxi(2000, 1)
	qs := []query.Query{
		query.NewCount(query.Filter{Dim: 0, Lo: 0, Hi: 100}),
		query.NewCount(query.Filter{Dim: 1, Lo: 0, Hi: 100}),
		query.NewCount(query.Filter{Dim: 0, Lo: 50, Hi: 150}),
	}
	typed, n := ClusterQueryTypes(index.NewSample(st, 2000), qs)
	if n < 2 {
		t.Fatalf("types = %d, want >= 2 (different dim sets)", n)
	}
	if typed[0].Type == typed[1].Type {
		t.Error("queries over different dim sets share a type")
	}
	if typed[0].Type != typed[2].Type {
		t.Error("similar queries over the same dim set should share a type")
	}
}

func TestClusterQueryTypesBySelectivity(t *testing.T) {
	st := testutil.SmallTaxi(4000, 2)
	lo, hi := st.MinMax(0)
	span := hi - lo
	var qs []query.Query
	// Narrow type: ~1% of the domain; wide type: ~60%.
	for i := 0; i < 10; i++ {
		qs = append(qs, query.NewCount(query.Filter{Dim: 0, Lo: lo + int64(i)*span/20, Hi: lo + int64(i)*span/20 + span/100}))
		qs = append(qs, query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: lo + span*6/10}))
	}
	typed, n := ClusterQueryTypes(index.NewSample(st, 2000), qs)
	if n != 2 {
		t.Fatalf("types = %d, want 2", n)
	}
	if typed[0].Type == typed[1].Type {
		t.Error("narrow and wide queries should be different types")
	}
}

func TestTreeSplitsOnSkewedWorkload(t *testing.T) {
	st := testutil.SmallTaxi(20000, 3)
	qs := testutil.SkewedQueries(st, 200, 4)
	tree := Build(st, qs, Config{})
	if len(tree.Regions) < 2 {
		t.Fatalf("regions = %d, want >= 2 for a skewed workload", len(tree.Regions))
	}
	if tree.Depth < 2 {
		t.Errorf("depth = %d, want >= 2", tree.Depth)
	}
}

func TestTreeUniformSingleTypeStaysTiny(t *testing.T) {
	// One query type, uniformly positioned: no skew, so no splits.
	st := testutil.SmallTaxi(20000, 5)
	rng := int64(6)
	lo, hi := st.MinMax(0)
	span := hi - lo
	var qs []query.Query
	for i := 0; i < 100; i++ {
		a := lo + (span*int64(i*37%100))/100
		w := span / 10
		b := a + w
		if b > hi {
			b = hi
		}
		qs = append(qs, query.NewCount(query.Filter{Dim: 0, Lo: a, Hi: b}))
	}
	_ = rng
	tree := Build(st, qs, Config{})
	if tree.NumNodes > 8 {
		t.Errorf("nodes = %d; a skew-free single-type workload should stay tiny", tree.NumNodes)
	}
}

func TestTreeNodeBudgetRespected(t *testing.T) {
	st := testutil.SmallTaxi(20000, 5)
	qs := testutil.RandomQueries(st, 100, 6) // patternless: many noisy types
	tree := Build(st, qs, Config{})
	if tree.NumNodes > maxNodes {
		t.Errorf("nodes = %d, budget %d", tree.NumNodes, maxNodes)
	}
}

func TestRegionsPartitionAllRows(t *testing.T) {
	st := testutil.SmallTaxi(10000, 7)
	qs := testutil.SkewedQueries(st, 200, 8)
	tree := Build(st, qs, Config{})
	seen := make([]bool, st.NumRows())
	total := 0
	for _, r := range tree.Regions {
		total += len(r.Rows)
		for _, row := range r.Rows {
			if seen[row] {
				t.Fatalf("row %d in more than one region", row)
			}
			seen[row] = true
		}
	}
	if total != st.NumRows() {
		t.Fatalf("regions cover %d rows, want %d", total, st.NumRows())
	}
}

func TestRegionsBoundsContainTheirRows(t *testing.T) {
	st := testutil.SmallTaxi(10000, 9)
	qs := testutil.SkewedQueries(st, 200, 10)
	tree := Build(st, qs, Config{})
	for ri, r := range tree.Regions {
		for _, row := range r.Rows {
			for j := 0; j < st.NumDims(); j++ {
				v := st.Value(row, j)
				if v < r.Lo[j] || v > r.Hi[j] {
					t.Fatalf("region %d row %d dim %d: value %d outside [%d, %d]",
						ri, row, j, v, r.Lo[j], r.Hi[j])
				}
			}
		}
	}
}

func TestFindRegionsCoversMatchingPoints(t *testing.T) {
	st := testutil.SmallTaxi(10000, 11)
	work := testutil.SkewedQueries(st, 200, 12)
	tree := Build(st, work, Config{})
	probe := testutil.RandomQueries(st, 60, 13)
	for _, q := range probe {
		regions := tree.FindRegions(q, nil)
		inRegion := make(map[int]bool)
		for _, r := range regions {
			for _, row := range r.Rows {
				inRegion[row] = true
			}
		}
		// Every matching row must be inside some returned region.
		row := make([]int64, st.NumDims())
		for i := 0; i < st.NumRows(); i++ {
			st.Row(i, row)
			if q.MatchesRow(row) && !inRegion[i] {
				t.Fatalf("matching row %d missed by FindRegions(%s)", i, q)
			}
		}
	}
}

func TestSkewTreeCoveringSetIsCovering(t *testing.T) {
	st := testutil.SmallTaxi(5000, 14)
	qs := testutil.SkewedQueries(st, 100, 15)
	lo, hi := st.MinMax(0)
	vals := st.Column(0)
	th := buildTypeHists(vals, 0, lo, hi, qs, 2, 128)
	nb := th.numBins()
	root := buildSkewTree(th, 0, nb, 2)
	cover := root.coveringSet(nil)
	// Ranges must tile [0, nb) without gaps or overlaps.
	pos := 0
	for _, nd := range cover {
		if nd.x != pos {
			t.Fatalf("covering set gap/overlap at bin %d (node starts at %d)", pos, nd.x)
		}
		pos = nd.y
	}
	if pos != nb {
		t.Fatalf("covering set ends at %d, want %d", pos, nb)
	}
	// DP optimality lower bound: combined skew <= root skew.
	combined := 0.0
	for _, nd := range cover {
		combined += nd.skew
	}
	if combined > root.skew+1e-9 {
		t.Errorf("covering skew %f exceeds root skew %f", combined, root.skew)
	}
}

func TestPlanSplitFindsSkewBoundary(t *testing.T) {
	// The Fig 2/3 scenario: green queries only over the last ~10% of dim 0.
	st := testutil.SmallTaxi(20000, 16)
	qs := testutil.SkewedQueries(st, 400, 17)
	lo, hi := st.MinMax(0)
	plan := planSplit(st.Column(0), 0, lo, hi, qs, 2, 0)
	if plan.reduction <= 0 {
		t.Fatal("expected positive skew reduction on skewed dim")
	}
	if len(plan.values) == 0 {
		t.Fatal("expected split values")
	}
	// At least one split should land near the 90th percentile boundary.
	want := hi - (hi-lo)/10
	tol := (hi - lo) / 8
	found := false
	for _, v := range plan.values {
		if v > want-tol && v < want+tol {
			found = true
		}
	}
	if !found {
		t.Errorf("no split near %d (±%d); got %v", want, tol, plan.values)
	}
}

func TestHighSkewThresholdForbidsSplitting(t *testing.T) {
	st := testutil.SmallTaxi(5000, 18)
	// Two hundred unfiltered queries carry no skew; twelve narrow ones
	// over dim 0 carry a little, so a split does reduce skew, but by less
	// than minSkewReduction of the whole workload's mass.
	qs := make([]query.Query, 0, 212)
	for range 200 {
		qs = append(qs, query.NewCount())
	}
	lo, hi := st.MinMax(0)
	for i := range int64(12) {
		a := lo + (hi-lo)*(80+i)/100
		qs = append(qs, query.NewCount(query.Filter{Dim: 0, Lo: a, Hi: a + (hi-lo)/100}))
	}
	typed, numTypes := ClusterQueryTypes(index.NewSample(st, 2000), qs)
	best := 0.0
	for dim := 0; dim < st.NumDims(); dim++ {
		lo, hi := st.MinMax(dim)
		if p := planSplit(st.Column(dim), dim, lo, hi, typed, numTypes, 0.005); len(p.values) > 0 {
			best = max(best, p.reduction)
		}
	}
	if threshold := minSkewReduction * float64(len(qs)); best <= 0 || best >= threshold {
		t.Fatalf("best split reduces skew by %.3f; the test needs one in (0, %.3f)", best, threshold)
	}
	tree := Build(st, qs, Config{})
	if len(tree.Regions) != 1 {
		t.Errorf("regions = %d, want 1 when every split reduces skew by less than the threshold", len(tree.Regions))
	}
}

func TestMinFractionsLimitDepth(t *testing.T) {
	// Each floor binds exactly where it says: a root at the floor is a
	// leaf, however skewed its workload, and one row or query more splits.
	for _, rows := range []int{1024, 1025} {
		st := testutil.SmallTaxi(rows, 20)
		if n := len(Build(st, testutil.SkewedQueries(st, 200, 21), Config{}).Regions); (n == 1) != (rows == 1024) {
			t.Errorf("%d regions over %d rows; the points floor is 1024", n, rows)
		}
	}
	st := testutil.SmallTaxi(20000, 3)
	for _, queries := range []int{minQueriesFloor, minQueriesFloor + 1} {
		if n := len(Build(st, testutil.SkewedQueries(st, queries, 4), Config{}).Regions); (n == 1) != (queries == minQueriesFloor) {
			t.Errorf("%d regions with %d queries; the queries floor is %d", n, queries, minQueriesFloor)
		}
	}
	// Above both floors the tree splits, and every node it split held more
	// rows than max(minPointFrac of the table, MinPointsFloor).
	tree := Build(st, testutil.SkewedQueries(st, 200, 4), Config{})
	if len(tree.Regions) < 2 {
		t.Fatalf("regions = %d, want a split above the floors", len(tree.Regions))
	}
	minPoints := max(int(minPointFrac*float64(st.NumRows())), 1024)
	var rows func(nd *Node) int
	rows = func(nd *Node) int {
		if nd.Region != nil {
			return len(nd.Region.Rows)
		}
		total := 0
		for _, c := range nd.Children {
			total += rows(c)
		}
		if total <= minPoints {
			t.Errorf("a node of %d rows was split; the floor is %d", total, minPoints)
		}
		return total
	}
	rows(tree.Root)
}
