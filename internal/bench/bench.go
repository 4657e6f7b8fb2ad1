// Package bench is the experiment harness: one runner per table and figure
// in the paper's evaluation (§6), each printing the same rows/series the
// paper reports. Absolute numbers differ from the paper (its testbed ran
// C++ on 184M–300M-row datasets; this harness defaults to laptop-scale
// generated data), but the shapes — who wins, by what factor, where
// crossovers fall — are the reproduction target (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/octree"
	"repro/internal/query"
	"repro/internal/singledim"
	"repro/internal/workload"
	"repro/internal/zindex"
)

// Options sizes an experiment run.
type Options struct {
	// Rows is the base dataset size (default 200_000; Quick 30_000).
	Rows int
	// QueriesPerType matches the paper's 100 (Quick 40).
	QueriesPerType int
	// Seed drives all generators (default 42).
	Seed int64
	// Quick shrinks everything for CI and `go test -bench`.
	Quick bool
}

func (o Options) fill() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Rows == 0 {
		if o.Quick {
			o.Rows = 30_000
		} else {
			o.Rows = 200_000
		}
	}
	if o.QueriesPerType == 0 {
		if o.Quick {
			o.QueriesPerType = 40
		} else {
			o.QueriesPerType = 100
		}
	}
	return o
}

func (o Options) tsunamiConfig(v core.Variant) core.Config {
	iters, sample, maxq := 4, 2048, 64
	if o.Quick {
		iters, sample, maxq = 2, 1024, 32
	}
	return core.Config{
		Variant: v,
		Grid: auggrid.OptimizeConfig{
			Eval:     auggrid.EvalConfig{SampleSize: sample, MaxQueries: maxq},
			MaxCells: 1 << 16,
			MaxIters: iters,
			Seed:     o.Seed,
		},
	}
}

// built pairs an index with its build timings.
type built struct {
	idx   index.Index
	stats index.BuildStats
	wall  float64
}

// datasetCase is one dataset plus its workload.
type datasetCase struct {
	ds   *datasets.Dataset
	work []query.Query
}

// paperDatasets generates the four §6.2 datasets and workloads at the
// configured scale.
func paperDatasets(o Options) []datasetCase {
	gens := []func(int, int64) *datasets.Dataset{
		datasets.TPCH, datasets.Taxi, datasets.Perfmon, datasets.Stocks,
	}
	out := make([]datasetCase, 0, len(gens))
	for i, gen := range gens {
		ds := gen(o.Rows, o.Seed+int64(i))
		out = append(out, datasetCase{ds: ds, work: workload.ForDataset(ds, o.QueriesPerType, o.Seed+100+int64(i))})
	}
	return out
}

// pageCandidates are the page sizes the non-learned baselines are tuned
// over ("we tuned the page size to achieve best performance", §6.3).
func (o Options) pageCandidates() []int {
	if o.Quick {
		return []int{2048}
	}
	return []int{512, 2048, 8192}
}

// buildTsunami times a full Tsunami build.
func buildTsunami(dc datasetCase, o Options) built {
	start := time.Now()
	idx := core.Build(dc.ds.Store, dc.work, o.tsunamiConfig(core.FullTsunami))
	return built{idx: idx, stats: idx.BuildStats(), wall: time.Since(start).Seconds()}
}

func buildFlood(dc datasetCase, o Options) built {
	start := time.Now()
	idx := core.Build(dc.ds.Store, dc.work, o.tsunamiConfig(core.Flood))
	return built{idx: idx, stats: idx.BuildStats(), wall: time.Since(start).Seconds()}
}

// buildTuned builds a non-learned baseline at each candidate page size and
// keeps the fastest on a probe subset of the workload.
func buildTuned(name string, dc datasetCase, o Options, mk func(page int) (index.Index, index.BuildStats)) built {
	probe := dc.work
	if len(probe) > 25 {
		probe = probe[:25]
	}
	var best built
	bestNs := 0.0
	for _, page := range o.pageCandidates() {
		start := time.Now()
		idx, stats := mk(page)
		wall := time.Since(start).Seconds()
		ns := avgQueryNs(idx, probe)
		if best.idx == nil || ns < bestNs {
			best = built{idx: idx, stats: stats, wall: wall}
			bestNs = ns
		}
	}
	_ = name // reserved for verbose logging
	return best
}

// buildSuite builds every index of Fig 7/8 for one dataset, in the paper's
// order: Tsunami, Flood, then the tuned non-learned baselines.
func buildSuite(dc datasetCase, o Options) []built {
	out := []built{buildTsunami(dc, o), buildFlood(dc, o)}
	out = append(out, buildTuned("KDTree", dc, o, func(p int) (index.Index, index.BuildStats) {
		x := kdtree.Build(dc.ds.Store, dc.work, p)
		return x, x.BuildStats()
	}))
	out = append(out, buildTuned("ZOrder", dc, o, func(p int) (index.Index, index.BuildStats) {
		x := zindex.Build(dc.ds.Store, p)
		return x, x.BuildStats()
	}))
	out = append(out, buildTuned("Hyperoctree", dc, o, func(p int) (index.Index, index.BuildStats) {
		x := octree.Build(dc.ds.Store, p)
		return x, x.BuildStats()
	}))
	start := time.Now()
	sd := singledim.Build(dc.ds.Store, dc.work, -1)
	out = append(out, built{idx: sd, stats: sd.BuildStats(), wall: time.Since(start).Seconds()})
	return out
}

// avgQueryNs measures the per-query latency in nanoseconds by replaying
// the workload after a warm-up pass: the median over seven windows of at
// least 3 ms (and one pass) each of the window's mean, so one GC pause or
// preemption moves one window, not the figure.
func avgQueryNs(idx index.Index, qs []query.Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	for _, q := range qs {
		idx.Execute(q)
	}
	const windows, minWindow = 7, 3 * time.Millisecond
	var means [windows]float64
	for w := range means {
		passes, start := 0, time.Now()
		for passes == 0 || time.Since(start) < minWindow {
			for _, q := range qs {
				idx.Execute(q)
			}
			passes++
		}
		means[w] = float64(time.Since(start).Nanoseconds()) / float64(passes*len(qs))
	}
	slices.Sort(means[:])
	return means[windows/2]
}

// throughput converts average latency to queries/second.
func throughput(avgNs float64) float64 {
	if avgNs <= 0 {
		return 0
	}
	return 1e9 / avgNs
}

// checkCorrect validates an index against a full scan on a probe subset;
// experiments abort loudly rather than report numbers from a wrong index.
func checkCorrect(idx index.Index, truth *colstore.Store, qs []query.Query) error {
	full := index.NewFullScan(truth)
	n := len(qs)
	if n > 20 {
		n = 20
	}
	for _, q := range qs[:n] {
		want := full.Execute(q)
		got := idx.Execute(q)
		if got.Count != want.Count || got.Sum != want.Sum {
			return fmt.Errorf("%s disagrees with full scan on %s: got %d, want %d",
				idx.Name(), q, got.Count, want.Count)
		}
	}
	return nil
}

// section prints an experiment header.
func section(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
}
