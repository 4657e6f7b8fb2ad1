package tsunami

import (
	"io"

	"repro/internal/core"
	"repro/internal/shift"
)

// This file exposes the paper's §8 future-work extensions, implemented in
// this repository:
//
//   - insertions through per-region delta buffers, the differential-file
//     scheme the paper cites: a built index is never written, so
//     idx, err = idx.CopyWithInserts(rows) derives a successor that buffers
//     the rows, and idx, _, err = idx.MergedCopy() folds the buffers
//     into the clustered layout of a new one (a LiveStore does both for
//     concurrent writers);
//   - workload-shift detection (ShiftDetector);
//   - outlier-robust functional mappings (Options via NewRobust).

// ShiftDetector watches a live query stream and reports when it has
// drifted enough from the optimized workload to warrant re-optimization
// (§8: a query type disappears, a new type appears, or type frequencies
// change).
type ShiftDetector = shift.Detector

// ShiftReport summarizes a detector window.
type ShiftReport = shift.Report

// NewShiftDetector fingerprints the workload an index was optimized for.
// Feed live queries to Observe and poll Analyze, which compares the last
// 256 against it; on ShiftDetected, call TsunamiIndex.Reoptimize with the
// detector's Recent workload.
func NewShiftDetector(table *Table, optimized []Query) *ShiftDetector {
	return shift.NewDetector(table, optimized)
}

// Load reconstructs an index previously written with TsunamiIndex.Save
// (§8 "Persistence"): the clustered column data, Grid Tree, and region
// grids round-trip without re-optimization.
func Load(r io.Reader) (*TsunamiIndex, error) { return core.Load(r) }

// NewRobust is New with outlier-robust functional mappings enabled (§8):
// up to outlierFrac of the rows may be diverted to per-grid outlier
// buffers so that a few stragglers don't inflate the mappings' error
// bands. Useful on dirty data; on clean data it behaves like New.
func NewRobust(table *Table, workload []Query, o Options, outlierFrac float64) *TsunamiIndex {
	cfg := o.coreConfig(core.FullTsunami)
	cfg.Grid.OutlierFrac = outlierFrac
	return core.Build(table, workload, cfg)
}
