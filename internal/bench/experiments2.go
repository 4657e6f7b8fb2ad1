package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/query"
	"repro/internal/workload"
)

// Fig10 sweeps dimensionality over the uncorrelated and correlated
// synthetic dataset groups (§6.5, Fig 10): Tsunami should keep its lead at
// high d, and on correlated data perform like a (d-4)-dimensional
// uncorrelated dataset thanks to the Augmented Grid.
func Fig10(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 10", "Scalability with dimensionality")
	dims := []int{4, 8, 12, 16, 20}
	if o.Quick {
		dims = []int{4, 8}
	}
	rows := o.Rows / 2
	if rows < 10_000 {
		rows = 10_000
	}
	for _, group := range []struct {
		name string
		gen  func(n, d int, seed int64) *datasets.Dataset
	}{
		{"uncorrelated", datasets.SyntheticUniform},
		{"correlated", datasets.SyntheticCorrelated},
	} {
		fmt.Fprintf(w, "\n%s group (%d rows):\n", group.name, rows)
		t := newTable("dims", "Tsunami", "Flood", "KDTree")
		for _, d := range dims {
			ds := group.gen(rows, d, o.Seed)
			work := workload.Generate(ds.Store, workload.SyntheticTypes(d), o.QueriesPerType, o.Seed+7)
			dc := datasetCase{ds: ds, work: work}
			ts := buildTsunami(dc, o)
			fl := buildFlood(dc, o)
			kd := kdtree.Build(ds.Store, work, 2048)
			for _, idx := range []index.Index{ts.idx, fl.idx, kd} {
				if err := checkCorrect(idx, ds.Store, work); err != nil {
					fmt.Fprintf(w, "CORRECTNESS FAILURE: %v\n", err)
					return
				}
			}
			t.add(fmt.Sprintf("%d", d),
				ms(avgQueryNs(ts.idx, work)),
				ms(avgQueryNs(fl.idx, work)),
				ms(avgQueryNs(kd, work)))
		}
		t.print(w)
	}
}

// Fig11a sweeps dataset size on TPC-H subsets (§6.5, Fig 11a).
func Fig11a(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 11a", "Scalability with dataset size (TPC-H)")
	full := datasets.TPCH(o.Rows, o.Seed)
	fractions := []int{8, 4, 2, 1}
	if o.Quick {
		fractions = []int{4, 1}
	}
	t := newTable("rows", "Tsunami", "Flood", "KDTree")
	for _, f := range fractions {
		ds := datasets.Sample(full, full.Rows()/f)
		work := workload.ForDataset(ds, o.QueriesPerType, o.Seed+100)
		dc := datasetCase{ds: ds, work: work}
		ts := buildTsunami(dc, o)
		fl := buildFlood(dc, o)
		kd := kdtree.Build(ds.Store, work, 2048)
		t.add(fmt.Sprintf("%d", ds.Rows()),
			ms(avgQueryNs(ts.idx, work)),
			ms(avgQueryNs(fl.idx, work)),
			ms(avgQueryNs(kd, work)))
	}
	t.print(w)
}

// Fig11b sweeps query selectivity on the 8-dim correlated synthetic
// dataset (§6.5, Fig 11b).
func Fig11b(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 11b", "Performance across query selectivity")
	rows := o.Rows
	ds := datasets.SyntheticCorrelated(rows, 8, o.Seed)
	sels := []float64{0.00001, 0.0001, 0.001, 0.01, 0.1}
	if o.Quick {
		sels = []float64{0.0001, 0.01}
	}
	t := newTable("selectivity", "Tsunami", "Flood", "KDTree")
	for _, sel := range sels {
		work := workload.Generate(ds.Store, workload.SelectivityTypes(4, sel), o.QueriesPerType, o.Seed+11)
		dc := datasetCase{ds: ds, work: work}
		ts := buildTsunami(dc, o)
		fl := buildFlood(dc, o)
		kd := kdtree.Build(ds.Store, work, 2048)
		t.add(fmt.Sprintf("%.3f%%", sel*100),
			ms(avgQueryNs(ts.idx, work)),
			ms(avgQueryNs(fl.idx, work)),
			ms(avgQueryNs(kd, work)))
	}
	t.print(w)
}

// Fig12a compares Tsunami's components in isolation (§6.6, Fig 12a): Flood,
// Augmented Grid only, Grid Tree only (Flood per region), full Tsunami.
func Fig12a(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 12a", "Component drill-down")
	for _, dc := range paperDatasets(o) {
		fmt.Fprintf(w, "\n%s:\n", dc.ds.Name)
		fl := buildFlood(dc, o)
		ag := core.Build(dc.ds.Store, dc.work, o.tsunamiConfig(core.AugGridOnly))
		gt := core.Build(dc.ds.Store, dc.work, o.tsunamiConfig(core.GridTreeOnly))
		ts := buildTsunami(dc, o)
		t := newTable("variant", "avg query", "speedup vs Flood")
		floodNs := avgQueryNs(fl.idx, dc.work)
		for _, entry := range []struct {
			name string
			idx  index.Index
		}{
			{"Flood", fl.idx},
			{"AugGrid-only", ag},
			{"GridTree-only", gt},
			{"Tsunami", ts.idx},
		} {
			ns := avgQueryNs(entry.idx, dc.work)
			t.add(entry.name, ms(ns), fmt.Sprintf("%.2fx", floodNs/ns))
		}
		t.print(w)
	}
}

// Fig12b compares the layout optimizers (§6.6, Fig 12b): AGD vs plain GD,
// a black-box search, and AGD from a naive initial skeleton; it reports
// predicted cost (bars) and measured query time (error bars) plus the
// average cost-model error.
func Fig12b(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Fig 12b", "Optimization method comparison (one Augmented Grid over the full space)")
	var errSum float64
	var errN int
	for _, dc := range paperDatasets(o) {
		fmt.Fprintf(w, "\n%s:\n", dc.ds.Name)
		rows := allRows(dc.ds.Store.NumRows())
		cfg := o.tsunamiConfig(core.FullTsunami).Grid
		t := newTable("optimizer", "predicted", "measured", "skeleton")
		for _, opt := range auggrid.Optimizers() {
			layout, predicted := auggrid.Optimize(dc.ds.Store, rows, dc.work, opt, cfg)
			g, st, err := buildStandaloneGrid(dc.ds.Store, layout)
			if err != nil {
				t.add(opt.Name, "build failed", "-", layout.Skeleton.String())
				continue
			}
			gi := &gridIndex{g: g, st: st, name: opt.Name}
			if cerr := checkCorrect(gi, st, dc.work); cerr != nil {
				t.add(opt.Name, "INCORRECT", "-", layout.Skeleton.String())
				continue
			}
			measured := avgQueryNs(gi, dc.work)
			if measured > 0 {
				e := predicted/measured - 1
				if e < 0 {
					e = -e
				}
				errSum += e
				errN++
			}
			t.add(opt.Name, ms(predicted), ms(measured), layout.Skeleton.String())
		}
		t.print(w)
	}
	if errN > 0 {
		fmt.Fprintf(w, "\naverage cost-model error: %.0f%% (paper reports 15%%)\n", 100*errSum/float64(errN))
	}
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// buildStandaloneGrid builds one Augmented Grid over a reordered copy of st.
func buildStandaloneGrid(st *colstore.Store, layout auggrid.Layout) (*auggrid.Grid, *colstore.Store, error) {
	g, ordered, err := auggrid.Build(st, allRows(st.NumRows()), layout)
	if err != nil {
		return nil, nil, err
	}
	sorted := st.Gather(ordered, nil)
	return g.Bind(sorted, 0), sorted, nil
}

// gridIndex adapts a bare Augmented Grid over its store to the Index
// interface: plan, then scan the plan.
type gridIndex struct {
	g    *auggrid.Grid
	st   *colstore.Store
	name string
}

func (x *gridIndex) Name() string { return x.name }
func (x *gridIndex) Execute(q query.Query) colstore.ScanResult {
	return x.Plan(q, index.Exec{}).Execute()
}
func (x *gridIndex) Plan(q query.Query, _ index.Exec) index.Plan {
	p := index.NewRangePlan(x.st, q)
	p.Ranges, _ = x.g.PlanRanges(q, auggrid.NewExecContext(), p.Ranges)
	return p
}
func (x *gridIndex) SizeBytes() uint64 { return x.g.SizeBytes() }

// experiments is every experiment in paper order: Run dispatches on it
// and "all" visits it front to back.
var experiments = []struct {
	id  string
	run func(io.Writer, Options)
}{
	{"tab3", Tab3},
	{"tab4", Tab4},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9a", Fig9a},
	{"fig9b", Fig9b},
	{"fig10", Fig10},
	{"fig11a", Fig11a},
	{"fig11b", Fig11b},
	{"fig12a", Fig12a},
	{"fig12b", Fig12b},
	{"ablation", Ablations},
	{"rebalance", Rebalance},
	{"traffic", Traffic},
	{"scan", Scan},
}

// IDs lists what Run accepts: every experiment in paper order, then "all".
func IDs() []string {
	ids := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	return append(ids, "all")
}

// Run dispatches an experiment by id ("tab3", "fig7", ..., "all").
func Run(w io.Writer, id string, o Options) error {
	if o.Rows < 0 || o.QueriesPerType < 0 {
		return fmt.Errorf("rows (%d) and queries per type (%d) must not be negative (0 picks the default)", o.Rows, o.QueriesPerType)
	}
	ran := false
	for _, e := range experiments {
		if id == e.id || id == "all" {
			e.run(w, o)
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (%s)", id, strings.Join(IDs(), ", "))
	}
	return nil
}
