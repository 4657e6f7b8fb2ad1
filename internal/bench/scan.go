package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/colstore"
	"repro/internal/query"
)

// Scan prints the scan kernels' single-thread throughput on the canonical
// colstore.KernelBenchShapes: the three tiers (dispatched, portable and
// the scalar oracle) on int64 columns spanning 1e6 values, and the
// dispatched kernel on columns spanning 256 values, which it reads
// through their byte images — with the physical bandwidth that implies
// (1 byte per filter value, 8 per SUM value) and its speedup over the
// int64 kernel on the same data. Each shape's query is prepared once and
// its ranges scanned as one plan, the way an index scans; every tier is
// checked against the scalar oracle.
func Scan(w io.Writer, o Options) {
	o = o.fill()
	section(w, "Scan", "Scan kernels per tier, int64 and byte-coded columns")
	budget := 200 * time.Millisecond
	if o.Quick {
		budget = 20 * time.Millisecond
	}
	wide, shapes := scanStore(o.Rows, 1_000_000, o.Seed)
	coded, codedShapes := scanStore(o.Rows, 256, o.Seed)
	fmt.Fprintf(w, "%d rows, best of 3 timings per cell; dispatched kernel: %s\n", o.Rows, colstore.KernelName())
	t := newTable("shape", "dispatched Mrows/s", "portable", "scalar", "coded Mrows/s", "coded GB/s", "coded vs int64")
	for i, sh := range shapes {
		csh, plan := codedShapes[i], planOf(sh)
		var want, cwant colstore.ScanResult
		scalar := timePass(budget, func() { want = scanScalar(wide, sh) })
		cwant = scanScalar(coded, csh)
		var got colstore.ScanResult
		dispatched := timePass(budget, func() { got = scanPrepared(wide, sh.Query, plan) })
		prev := colstore.SetSIMD(false)
		var port colstore.ScanResult
		portable := timePass(budget, func() { port = scanPrepared(wide, sh.Query, plan) })
		colstore.SetSIMD(prev)
		var cgot, cwide colstore.ScanResult
		codedNs := timePass(budget, func() { cgot = scanPrepared(coded, csh.Query, plan) })
		prevCoded := colstore.SetCoded(false)
		wideNs := timePass(budget, func() { cwide = scanPrepared(coded, csh.Query, plan) })
		colstore.SetCoded(prevCoded)
		for _, r := range []colstore.ScanResult{got, port} {
			if !r.Equal(want) {
				fmt.Fprintf(w, "CORRECTNESS FAILURE: %s: %+v, want %+v\n", sh.Name, r, want)
			}
		}
		for _, r := range []colstore.ScanResult{cgot, cwide} {
			if !r.Equal(cwant) {
				fmt.Fprintf(w, "CORRECTNESS FAILURE: coded %s: %+v, want %+v\n", sh.Name, r, cwant)
			}
		}
		rows := float64(sh.Rows())
		perRow := float64(len(csh.Query.Filters))
		if csh.Query.Agg == query.Sum {
			perRow += 8
		}
		t.add(sh.Name,
			fmt.Sprintf("%.0f", rows/dispatched*1e3),
			fmt.Sprintf("%.0f", rows/portable*1e3),
			fmt.Sprintf("%.0f", rows/scalar*1e3),
			fmt.Sprintf("%.0f", float64(csh.Rows())/codedNs*1e3),
			fmt.Sprintf("%.1f", float64(csh.Rows())*perRow/codedNs),
			fmt.Sprintf("%.1fx", wideNs/codedNs))
	}
	t.print(w)
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
