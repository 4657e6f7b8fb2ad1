package core

import (
	"sort"
	"time"

	"repro/internal/query"
)

// Incremental re-optimization (§8): "Tsunami could be incrementally
// adjusted, e.g. by only re-optimizing the Augmented Grids whose regions
// saw the most significant workload shift." ReoptimizeRegionsCopy scores
// each region by how much the new workload's demands on it diverge from
// the workload its grid was optimized for and hands the top regions to the
// copy-on-write region rewrite (rewrite.go) with their new query sets. The
// Grid Tree structure is untouched, so this is much cheaper than a full
// rebuild — and correspondingly weaker when the shift moves query skew
// across region boundaries (then use Reoptimize).

// regionDrift scores one region's workload change.
type regionDrift struct {
	id, rows int
	drift    float64
}

// ReoptimizeRegionsCopy returns a new index in which the grids of at most
// maxRegions regions — those whose incident workload changed most — are
// re-optimized for the new workload, and every buffered row is folded into
// the clustered layout by the same pass (a region that both drifted and
// holds buffered rows is built once, over the union). It also returns the
// number of regions re-optimized and the wall time. t is untouched and can
// keep serving reads throughout.
func (t *Tsunami) ReoptimizeRegionsCopy(workload []query.Query, maxRegions int) (*Tsunami, int, float64, error) {
	start := time.Now()
	if maxRegions <= 0 {
		maxRegions = 1 + len(t.tree.Regions)/10
	}

	// Assign the new workload to regions.
	newQueries := make(map[int][]query.Query)
	for _, q := range workload {
		for _, r := range t.tree.FindRegions(q, nil) {
			newQueries[r.ID] = append(newQueries[r.ID], q)
		}
	}

	// Score drift per region: change in incident-query count plus a term
	// for regions whose stored workload was empty but now sees queries
	// (or vice versa). Counts are normalized by workload sizes.
	oldTotal := 0
	for _, r := range t.tree.Regions {
		oldTotal += len(r.Queries)
	}
	newTotal := 0
	for _, qs := range newQueries {
		newTotal += len(qs)
	}
	drifts := make([]regionDrift, 0, len(t.tree.Regions))
	for _, r := range t.tree.Regions {
		oldFrac := float64(len(r.Queries)) / float64(max(oldTotal, 1))
		newFrac := float64(len(newQueries[r.ID])) / float64(max(newTotal, 1))
		d := newFrac - oldFrac
		if d < 0 {
			d = -d
		}
		// Weight by region size, buffered rows included (the rewrite folds
		// them): a drifted region holding many points matters more.
		rows := t.regionRows(r.ID)
		if dl := t.deltas[r.ID]; dl != nil {
			rows += len(dl.rows)
		}
		drifts = append(drifts, regionDrift{id: r.ID, rows: rows, drift: d * float64(rows)})
	}
	sort.Slice(drifts, func(a, b int) bool { return drifts[a].drift > drifts[b].drift })

	reopt := make(map[int][]query.Query)
	for _, rd := range drifts {
		if len(reopt) >= maxRegions || rd.drift == 0 {
			break
		}
		if rd.rows >= t.cfg.MinRowsForGrid {
			reopt[rd.id] = newQueries[rd.id]
		}
	}
	nt, _, err := t.rewrite(nil, reopt, nil, nil)
	return nt, len(reopt), time.Since(start).Seconds(), err
}
