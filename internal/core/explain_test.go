package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/testutil"
)

// traced runs q through idx's pipeline with a trace: the EXPLAIN of q is
// the trace's region spans.
func traced(idx *Tsunami, q query.Query) (colstore.ScanResult, *obs.QueryTrace) {
	tr := new(obs.QueryTrace)
	return idx.ExecuteWith(q, index.Exec{Trace: tr}), tr
}

// checkSpans asserts the region spans of a traced run account for its
// answer: per-region scanned and matched sum to the result's
// PointsScanned and Count, and the plan stage counts the spans with no
// range.
func checkSpans(t *testing.T, q query.Query, res colstore.ScanResult, tr *obs.QueryTrace) {
	t.Helper()
	var scanned, matched uint64
	empty := 0
	for _, sp := range tr.Regions {
		scanned += sp.Scanned
		matched += sp.Matched
		if sp.Ranges == 0 {
			empty++
		}
	}
	if scanned != res.PointsScanned || matched != res.Count {
		t.Errorf("%s: region spans sum to (scanned %d, matched %d), the answer is (%d, %d)",
			q, scanned, matched, res.PointsScanned, res.Count)
	}
	want := fmt.Sprintf(" %d planned no range,", empty)
	for _, st := range tr.Stages {
		if st.Name == "plan" && !strings.Contains(st.Detail, want) {
			t.Errorf("%s: plan stage %q, want it to report %d regions that planned no range", q, st.Detail, empty)
		}
	}
}

// TestExplainTotalsMatchExecute: a traced run answers exactly as an
// untraced one, flat and grouped, with and without buffered inserts, and
// its region spans account for the answer.
func TestExplainTotalsMatchExecute(t *testing.T) {
	st := testutil.SmallTaxi(10000, 1)
	work := testutil.SkewedQueries(st, 150, 2)
	idx := Build(st, work, smallConfig(FullTsunami))
	extra := testutil.SmallTaxi(300, 9)
	rows := make([][]int64, extra.NumRows())
	for i := range rows {
		rows[i] = extra.Row(i, nil)
	}
	withDeltas, err := idx.CopyWithInserts(rows)
	if err != nil {
		t.Fatal(err)
	}
	probe := append(testutil.RandomQueries(st, 50, 3), testutil.RandomGroupedQueries(st, 20, 4)...)
	for _, x := range []*Tsunami{idx, withDeltas} {
		for _, q := range probe {
			want := x.Execute(q)
			res, tr := traced(x, q)
			if !res.Equal(want) {
				t.Fatalf("%s: traced answer %+v, untraced %+v", q, res, want)
			}
			checkSpans(t, q, res, tr)
		}
	}
}

func TestExplainRegionBreakdownSums(t *testing.T) {
	st := testutil.SmallTaxi(10000, 4)
	work := testutil.SkewedQueries(st, 150, 5)
	idx := Build(st, work, smallConfig(FullTsunami))
	q := query.NewCount(query.Filter{Dim: 0, Lo: 0, Hi: 600_000})
	res, tr := traced(idx, q)
	checkSpans(t, q, res, tr)
	if n := len(idx.tree.Regions); len(tr.Regions) == 0 || len(tr.Regions) > n {
		t.Errorf("implausible region counts: %d of %d", len(tr.Regions), n)
	}
	for _, sp := range tr.Regions {
		if g := idx.grids[sp.Region]; (g != nil) != (sp.GridCells > 0) || sp.Ranges == 0 && sp.Scanned > 0 {
			t.Errorf("span %+v disagrees with region %d's grid (%v)", sp, sp.Region, g != nil)
		}
	}
}

func TestExplainStringRendering(t *testing.T) {
	st := testutil.SmallTaxi(5000, 6)
	work := testutil.SkewedQueries(st, 100, 7)
	idx := Build(st, work, smallConfig(FullTsunami))
	q := query.NewCount(query.Filter{Dim: 2, Lo: 0, Hi: 500})
	_, tr := traced(idx, q)
	out := tr.Explain()
	for _, want := range []string{q.String(), "regions visited", "ranges=", "matched="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}
