package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/colstore"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/workload"
)

// Scan prints the plan kernel's single-thread throughput on the
// canonical colstore.KernelBenchShapes. The first table is the three
// tiers (dispatched, portable and the scalar oracle) on columns spanning
// 2^40 values, whose filters read the int64 column; the second is the
// dispatched kernel on columns spanning 256, 65 536 and 1e6 values, whose
// filters read 1-, 2- and 4-byte lanes, each with its speedup over the
// same store's 8-byte lane (the narrow lanes off). Each shape's query is
// prepared once and its ranges scanned as one plan, the way an index
// scans, and every cell is checked against the scalar oracle. Last, the
// memory the lane images take on 500k-row Taxi and TPC-H stores.
func Scan(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Scan", "Scan kernels per tier and per lane")
	budget := 200 * time.Millisecond
	if o.Quick {
		budget = 20 * time.Millisecond
	}
	check := func(what string, got, want colstore.ScanResult) {
		if !got.Equal(want) {
			fmt.Fprintf(w, "CORRECTNESS FAILURE: %s: %+v, want %+v\n", what, got, want)
		}
	}
	wide, shapes := scanStore(o.Rows, 1<<40, o.Seed)
	fmt.Fprintf(w, "%d rows, best of 3 timings per cell; dispatched kernel: %s\n", o.Rows, colstore.KernelName())
	t := newTable("shape", "int64 dispatched Mrows/s", "portable", "scalar")
	for _, sh := range shapes {
		plan := planOf(sh)
		var want, got, port colstore.ScanResult
		scalar := timePass(budget, func() { want = scanScalar(wide, sh) })
		dispatched := timePass(budget, func() { got = scanPrepared(wide, sh.Query, plan) })
		prev := colstore.SetSIMD(false)
		portable := timePass(budget, func() { port = scanPrepared(wide, sh.Query, plan) })
		colstore.SetSIMD(prev)
		check(sh.Name, got, want)
		check(sh.Name+" portable", port, want)
		rows := float64(sh.Rows())
		t.add(sh.Name, fmt.Sprintf("%.0f", rows/dispatched*1e3), fmt.Sprintf("%.0f", rows/portable*1e3), fmt.Sprintf("%.0f", rows/scalar*1e3))
	}
	t.print(w)

	lanes := []struct {
		name   string
		domain int64
	}{{"1-byte", 256}, {"2-byte", 1 << 16}, {"4-byte", 1_000_000}}
	header := []string{"shape"}
	stores := make([]*colstore.Store, len(lanes))
	laneShapes := make([][]colstore.BenchShape, len(lanes))
	for i, l := range lanes {
		header = append(header, l.name+" Mrows/s", "vs 8-byte")
		stores[i], laneShapes[i] = scanStore(o.Rows, l.domain, o.Seed)
	}
	lt := newTable(header...)
	for i, sh := range shapes {
		row := []string{sh.Name}
		for j, l := range lanes {
			st, lsh := stores[j], laneShapes[j][i]
			plan, want := planOf(lsh), scanScalar(st, lsh)
			var narrow, wide colstore.ScanResult
			narrowNs := timePass(budget, func() { narrow = scanPrepared(st, lsh.Query, plan) })
			prev := colstore.SetCoded(false)
			wideNs := timePass(budget, func() { wide = scanPrepared(st, lsh.Query, plan) })
			colstore.SetCoded(prev)
			check(l.name+" "+sh.Name, narrow, want)
			check(l.name+" "+sh.Name+" on its int64 column", wide, want)
			row = append(row, fmt.Sprintf("%.0f", float64(lsh.Rows())/narrowNs*1e3), fmt.Sprintf("%.1fx", wideNs/narrowNs))
		}
		lt.add(row...)
	}
	lt.print(w)
	imageBytes(w, o.Seed)
}

// imageBytes prints the heap the lane images take on 500k-row Taxi and
// TPC-H stores: HeapAlloc after one whole-store scan of each of the
// dataset's Fig 7 workload queries (which builds the images of the
// columns they filter), minus before.
func imageBytes(w io.Writer, seed int64) {
	const rows = 500_000
	t := newTable("dataset", "rows", "images MiB", "bytes/row")
	for _, c := range []struct {
		name  string
		data  func(int, int64) *datasets.Dataset
		types func() []workload.TypeSpec
	}{{"Taxi", datasets.Taxi, workload.TaxiTypes}, {"TPC-H", datasets.TPCH, workload.TPCHTypes}} {
		st := c.data(rows, seed).Store
		qs := workload.Generate(st, c.types(), 10, seed)
		before := heapAlloc()
		for _, q := range qs {
			scanPrepared(st, q, []colstore.Range{{Start: 0, End: rows}})
		}
		grown := float64(heapAlloc()) - float64(before)
		runtime.KeepAlive(st)
		t.add(c.name, fmt.Sprint(rows), fmt.Sprintf("%.1f", grown/(1<<20)), fmt.Sprintf("%.1f", grown/rows))
	}
	t.print(w)
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// scanStore builds four columns of rows uniform [0, domain) values and
// the kernel shapes over them.
func scanStore(rows int, domain, seed int64) (*colstore.Store, []colstore.BenchShape) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, 4)
	for j := range cols {
		cols[j] = make([]int64, rows)
		for i := range cols[j] {
			cols[j][i] = rng.Int63n(domain)
		}
	}
	st, err := colstore.FromColumns(cols, nil)
	if err != nil {
		panic(err) // four equal columns always make a store
	}
	return st, colstore.KernelBenchShapes(rows, domain, seed)
}

// planOf is a shape's ranges as a plan: every row filter-checked.
func planOf(sh colstore.BenchShape) []colstore.Range {
	plan := make([]colstore.Range, len(sh.Ranges))
	for i, r := range sh.Ranges {
		plan[i] = colstore.Range{Start: r[0], End: r[1]}
	}
	return plan
}

func scanPrepared(st *colstore.Store, q query.Query, plan []colstore.Range) colstore.ScanResult {
	var res colstore.ScanResult
	st.ScanRanges(q, plan, &res, nil)
	return res
}

func scanScalar(st *colstore.Store, sh colstore.BenchShape) colstore.ScanResult {
	var res colstore.ScanResult
	for _, r := range sh.Ranges {
		st.ScanRangeScalar(sh.Query, r[0], r[1], false, &res)
	}
	return res
}

// timePass returns the best of three timings of pass, in ns per call,
// each repeating it for at least budget/3.
func timePass(budget time.Duration, pass func()) float64 {
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		n, t0 := 0, time.Now()
		for time.Since(t0) < budget/3 {
			pass()
			n++
		}
		if ns := float64(time.Since(t0).Nanoseconds()) / float64(n); trial == 0 || ns < best {
			best = ns
		}
	}
	return best
}
