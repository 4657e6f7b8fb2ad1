package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/octree"
	"repro/internal/query"
)

// These tests pin the paper's qualitative claims at test scale using
// *scanned points* — a deterministic proxy for query time that is immune
// to machine noise. If a code change breaks one of these, the reproduction
// has regressed even if unit tests still pass.

func scannedPerQuery(idx index.Index, qs []query.Query) float64 {
	var total uint64
	for _, q := range qs {
		total += idx.Execute(q).PointsScanned
	}
	return float64(total) / float64(len(qs))
}

func claimsOptions() Options {
	return Options{Rows: 60_000, QueriesPerType: 50, Seed: 11, Quick: true}.fill()
}

func TestClaimTsunamiScansLessThanFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := claimsOptions()
	wins := 0
	for _, dc := range paperDatasets(o) {
		ts := buildTsunami(dc, o)
		fl := buildFlood(dc, o)
		sTs := scannedPerQuery(ts.idx, dc.work)
		sFl := scannedPerQuery(fl.idx, dc.work)
		t.Logf("%s: tsunami=%.0f flood=%.0f points/query", dc.ds.Name, sTs, sFl)
		if sTs < sFl {
			wins++
		}
	}
	// The paper has Tsunami ahead on all four datasets; at small scale we
	// require at least three to guard against generator noise.
	if wins < 3 {
		t.Errorf("Tsunami out-scanned Flood on %d/4 datasets, want >= 3", wins)
	}
}

func TestClaimLearnedIndexesBeatKDTree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := claimsOptions()
	for _, dc := range paperDatasets(o) {
		ts := buildTsunami(dc, o)
		kd := buildTuned("KDTree", dc, o, func(p int) (index.Index, index.BuildStats) {
			return newKD(dc, p), index.BuildStats{}
		})
		sTs := scannedPerQuery(ts.idx, dc.work)
		sKd := scannedPerQuery(kd.idx, dc.work)
		if sTs >= sKd {
			t.Errorf("%s: Tsunami scanned %.0f/query vs tuned k-d tree %.0f", dc.ds.Name, sTs, sKd)
		}
	}
}

func newKD(dc datasetCase, page int) index.Index {
	return kdtree.Build(dc.ds.Store, dc.work, page)
}

func newOct(dc datasetCase, page int) index.Index {
	return octree.Build(dc.ds.Store, page)
}

func TestClaimGridTreeAloneHelpsOnSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Fig 12a's main finding: the Grid Tree contributes on skewed
	// workloads even with plain Flood grids inside.
	o := claimsOptions()
	dc := paperDatasets(o)[1] // Taxi: strong recency and passenger-count skew
	gt := core.Build(dc.ds.Store, dc.work, o.tsunamiConfig(core.GridTreeOnly))
	fl := buildFlood(dc, o)
	sGt := scannedPerQuery(gt, dc.work)
	sFl := scannedPerQuery(fl.idx, dc.work)
	t.Logf("gridtree-only=%.0f flood=%.0f points/query", sGt, sFl)
	if sGt >= sFl {
		t.Errorf("GridTree-only (%.0f) should scan less than Flood (%.0f) on a skewed workload", sGt, sFl)
	}
}

func TestClaimTsunamiSmallerThanNonLearned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Fig 8: Tsunami is much smaller than the tree-based baselines.
	o := claimsOptions()
	dc := paperDatasets(o)[1] // Taxi
	ts := buildTsunami(dc, o)
	oct := buildTuned("Hyperoctree", dc, o, func(p int) (index.Index, index.BuildStats) {
		return newOct(dc, p), index.BuildStats{}
	})
	if ts.idx.SizeBytes()*4 > oct.idx.SizeBytes() {
		t.Errorf("Tsunami (%d B) should be >=4x smaller than the hyperoctree (%d B)",
			ts.idx.SizeBytes(), oct.idx.SizeBytes())
	}
}
