package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/index"
	"repro/internal/workload"
)

// Tab3 prints the dataset and query characteristics table (§6.2, Tab 3).
func Tab3(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Tab 3", "Dataset and query characteristics")
	t := newTable("dataset", "records", "query types", "dimensions", "size", "avg sel")
	for _, dc := range paperDatasets(o) {
		types := map[int]bool{}
		selSum := 0.0
		for _, q := range dc.work {
			types[q.Type] = true
			selSum += index.Selectivity(dc.ds.Store, q)
		}
		t.add(dc.ds.Name,
			fmt.Sprintf("%d", dc.ds.Rows()),
			fmt.Sprintf("%d", len(types)),
			fmt.Sprintf("%d", dc.ds.Dims()),
			human(dc.ds.Store.SizeBytes()),
			fmt.Sprintf("%.2f%%", 100*selSum/float64(len(dc.work))))
	}
	t.print(w)
}

// Tab4 prints the optimized index structure statistics (§6.3, Tab 4).
func Tab4(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Tab 4", "Index statistics after optimization")
	t := newTable("dataset", "GT nodes", "GT depth", "regions",
		"min pts/region", "med pts/region", "max pts/region",
		"avg FMs", "avg CCDFs", "tsunami cells", "flood cells")
	for _, dc := range paperDatasets(o) {
		ts := buildTsunami(dc, o)
		fl := buildFlood(dc, o)
		s := ts.idx.(*core.Tsunami).IndexStats()
		t.add(dc.ds.Name,
			fmt.Sprintf("%d", s.NumGridTreeNodes),
			fmt.Sprintf("%d", s.GridTreeDepth),
			fmt.Sprintf("%d", s.NumLeafRegions),
			fmt.Sprintf("%d", s.MinPointsPerRegion),
			fmt.Sprintf("%d", s.MedianPointsPerRegion),
			fmt.Sprintf("%d", s.MaxPointsPerRegion),
			fmt.Sprintf("%.2f", s.AvgFMsPerRegion),
			fmt.Sprintf("%.2f", s.AvgCCDFsPerRegion),
			fmt.Sprintf("%d", s.TotalGridCells),
			fmt.Sprintf("%d", fl.idx.(*core.Tsunami).IndexStats().TotalGridCells))
	}
	t.print(w)
}

// Fig7 prints per-dataset average query time and throughput for every
// index, plus Tsunami's speedup over Flood and the best non-learned index
// (§6.3, Fig 7).
func Fig7(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 7", "Query performance across datasets")
	for _, dc := range paperDatasets(o) {
		fmt.Fprintf(w, "\n%s (%d rows, %d queries):\n", dc.ds.Name, dc.ds.Rows(), len(dc.work))
		suite := buildSuite(dc, o)
		t := newTable("index", "avg query", "throughput (q/s)", "vs Tsunami")
		var tsunamiNs, floodNs, bestNonLearnedNs float64
		lat := make([]float64, len(suite))
		for i, b := range suite {
			if err := checkCorrect(b.idx, dc.ds.Store, dc.work); err != nil {
				fmt.Fprintf(w, "CORRECTNESS FAILURE: %v\n", err)
				return
			}
			lat[i] = avgQueryNs(b.idx, dc.work)
			switch b.idx.Name() {
			case "Tsunami":
				tsunamiNs = lat[i]
			case "Flood":
				floodNs = lat[i]
			default:
				if bestNonLearnedNs == 0 || lat[i] < bestNonLearnedNs {
					bestNonLearnedNs = lat[i]
				}
			}
		}
		for i, b := range suite {
			t.add(b.idx.Name(), ms(lat[i]),
				fmt.Sprintf("%.0f", throughput(lat[i])),
				fmt.Sprintf("%.2fx", lat[i]/tsunamiNs))
		}
		t.print(w)
		fmt.Fprintf(w, "Tsunami speedup: %.2fx vs Flood, %.2fx vs best non-learned\n",
			floodNs/tsunamiNs, bestNonLearnedNs/tsunamiNs)
	}
}

// Fig8 prints index sizes (§6.3, Fig 8).
func Fig8(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 8", "Index size across datasets")
	for _, dc := range paperDatasets(o) {
		fmt.Fprintf(w, "\n%s:\n", dc.ds.Name)
		suite := buildSuite(dc, o)
		t := newTable("index", "size", "vs Tsunami")
		var tsunamiSize uint64
		for _, b := range suite {
			if b.idx.Name() == "Tsunami" {
				tsunamiSize = b.idx.SizeBytes()
			}
		}
		for _, b := range suite {
			t.add(b.idx.Name(), human(b.idx.SizeBytes()),
				fmt.Sprintf("%.1fx", float64(b.idx.SizeBytes())/float64(tsunamiSize)))
		}
		t.print(w)
	}
}

// Fig9a simulates the midnight workload shift on TPC-H (§6.4, Fig 9a): the
// learned indexes degrade on the new workload, re-optimize, and recover.
func Fig9a(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 9a", "Adaptability to workload shift (TPC-H)")
	ds := datasets.TPCH(o.Rows, o.Seed)
	gen := workload.NewGenerator(ds.Store, o.Seed+100)
	workA := gen.Generate(workload.TPCHTypes(), o.QueriesPerType)
	workB := gen.Generate(workload.TPCHShiftedTypes(), o.QueriesPerType)

	dcA := datasetCase{ds: ds, work: workA}
	ts := buildTsunami(dcA, o)
	fl := buildFlood(dcA, o)

	t := newTable("phase", "Tsunami (q/s)", "Flood (q/s)")
	t.add("before shift (workload A)",
		fmt.Sprintf("%.0f", throughput(avgQueryNs(ts.idx, workA))),
		fmt.Sprintf("%.0f", throughput(avgQueryNs(fl.idx, workA))))
	t.add("after shift, stale layout (workload B)",
		fmt.Sprintf("%.0f", throughput(avgQueryNs(ts.idx, workB))),
		fmt.Sprintf("%.0f", throughput(avgQueryNs(fl.idx, workB))))

	nts, tsSecs := ts.idx.(*core.Tsunami).Reoptimize(workB)
	nfl, flSecs := fl.idx.(*core.Tsunami).Reoptimize(workB)
	t.add("after re-optimization (workload B)",
		fmt.Sprintf("%.0f", throughput(avgQueryNs(nts, workB))),
		fmt.Sprintf("%.0f", throughput(avgQueryNs(nfl, workB))))
	t.print(w)
	fmt.Fprintf(w, "re-optimization time: Tsunami %.2fs, Flood %.2fs (%d rows)\n",
		tsSecs, flSecs, ds.Rows())
}

// Fig9b prints index creation time split into data sorting and optimization
// (§6.4, Fig 9b).
func Fig9b(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 9b", "Index creation time (sort + optimize)")
	for _, dc := range paperDatasets(o) {
		fmt.Fprintf(w, "\n%s:\n", dc.ds.Name)
		suite := buildSuite(dc, o)
		t := newTable("index", "sort (s)", "optimize (s)", "total wall (s)")
		for _, b := range suite {
			t.add(b.idx.Name(),
				fmt.Sprintf("%.3f", b.stats.SortSeconds),
				fmt.Sprintf("%.3f", b.stats.OptimizeSeconds),
				fmt.Sprintf("%.3f", b.wall))
		}
		t.print(w)
	}
}
