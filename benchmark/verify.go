package main

import (
	"fmt"

	tsunami "repro"
)

// verification is what the pre-timing cross-check leaves behind: the answers
// later passes are held to, and Flood's scan volume on the same queries.
type verification struct {
	want        expected
	floodPoints []uint64 // Flood's PointsScanned per distinct flat query
	attempted   int
	failed      int
	firstErr    string
}

func (v *verification) fail(format string, args ...any) {
	v.failed++
	if v.firstErr == "" {
		v.firstErr = fmt.Sprintf(format, args...)
	}
}

// verify answers every query a pass will draw through the serving stack
// before anything is timed. Every flat answer must equal Flood's; every
// grouped answer must total to the flat answer it groups; and a fixed 1-in-10
// sample must equal the full-scan oracle (index.FullScan, and
// ScanRangeGroupedScalar for grouped queries).
func verify(st *stack, fl *tsunami.FloodIndex, in *inputs, groupedEvery int) *verification {
	table := in.data.Store
	oracle := tsunami.NewFullScan(table)
	v := &verification{floodPoints: make([]uint64, len(in.flat))}
	v.want.flat = make([]answer, len(in.flat))
	v.want.grouped = make([]answer, len(in.grouped))
	// Only the queries a pass draws are answered, each once.
	have, haveGrouped := make([]bool, len(in.flat)), make([]bool, len(in.grouped))

	sampled := 0
	for _, i := range in.flatSeq {
		if have[i] {
			continue
		}
		have[i] = true
		q := in.flat[i]
		v.attempted++
		r, err := st.flat(q)
		if err != nil {
			v.fail("flat query %d: %v", i, err)
			continue
		}
		f := fl.Execute(q)
		v.floodPoints[i] = f.PointsScanned
		if r.Count != f.Count || r.Sum != f.Sum {
			v.fail("flat query %d %v: served count=%d sum=%d, Flood count=%d sum=%d", i, q, r.Count, r.Sum, f.Count, f.Sum)
		}
		if sampled++; sampled%10 == 1 {
			if o := oracle.Execute(q); r.Count != o.Count || r.Sum != o.Sum {
				v.fail("flat query %d %v: served count=%d, full scan count=%d", i, q, r.Count, o.Count)
			}
		}
		v.want.flat[i] = flatAnswer(r)
	}

	sampled = 0
	for _, i := range in.groupedSeq {
		if haveGrouped[i] {
			continue
		}
		haveGrouped[i] = true
		q := in.grouped[i]
		v.attempted++
		g, err := st.grouped(q)
		if err != nil {
			v.fail("grouped query %d: %v", i, err)
			continue
		}
		// The query is flat query i*groupedEvery with a GROUP BY: its groups
		// must hold exactly the rows that flat query counted.
		if src := i * groupedEvery; !have[src] {
			v.want.flat[src] = flatAnswer(fl.Execute(in.flat[src]))
			have[src] = true
		}
		if want := v.want.flat[i*groupedEvery].count; g.TotalCount() != want {
			v.fail("grouped query %d %v: groups total %d rows, the flat query counts %d", i, q, g.TotalCount(), want)
		}
		if sampled++; sampled%10 == 1 {
			var o tsunami.GroupedResult
			table.ScanRangeGroupedScalar(q, 0, table.NumRows(), false, &o)
			if groupedDigest(g) != groupedDigest(o) {
				v.fail("grouped query %d %v: %d groups, scalar full scan %d groups, or their aggregates differ", i, q, len(g.Groups), len(o.Groups))
			}
		}
		v.want.grouped[i] = groupedAnswer(g)
	}
	return v
}

// verifyAfterIngest proves, after Flush, that the stack holds exactly the
// base table plus every acknowledged row: COUNT(*) matches, and a sample of
// the test queries equals a full scan over base + inserted rows.
func verifyAfterIngest(v *verification, st *stack, in *inputs, inserted [][]int64) {
	base := in.data.Store
	v.attempted++
	if total, want := st.read(tsunami.Count()).Count, uint64(base.NumRows()+len(inserted)); total != want {
		v.fail("after ingest: COUNT(*)=%d, want base %d + acknowledged %d", total, base.NumRows(), len(inserted))
	}
	cols := make([][]int64, base.NumDims())
	for d := range cols {
		cols[d] = make([]int64, 0, base.NumRows()+len(inserted))
		cols[d] = append(cols[d], base.Column(d)...)
		for _, r := range inserted {
			cols[d] = append(cols[d], r[d])
		}
	}
	all, err := tsunami.NewTable(cols, base.Names())
	if err != nil {
		v.fail("after ingest: oracle table: %v", err)
		return
	}
	oracle := tsunami.NewFullScan(all)
	step := max(len(in.flat)/100, 1)
	for i := 0; i < len(in.flat); i += step {
		v.attempted++
		if r, o := st.read(in.flat[i]), oracle.Execute(in.flat[i]); r.Count != o.Count || r.Sum != o.Sum {
			v.fail("after ingest: flat query %d: store count=%d, full scan over base+inserted count=%d", i, r.Count, o.Count)
		}
	}
}
