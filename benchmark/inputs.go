package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	tsunami "repro"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/workload"
)

// inputs is everything a run feeds the program. Only flat, grouped, the two
// sequences and the insert rows depend on -seed.
type inputs struct {
	data  *tsunami.Dataset
	train []tsunami.Query

	flat    []tsunami.Query // distinct held-out queries
	grouped []tsunami.Query // GROUP BY variants of every groupedEvery-th flat query
	// One pass serves flat[i] for i in flatSeq and grouped[i] for i in
	// groupedSeq, block by block. Flood answers flatSeq's positions floodPos,
	// an even stride through it, so both sides of speedup_vs_flood_x are
	// timed on the same queries.
	flatSeq, groupedSeq []int
	floodPos            []int
}

func generate(sp spec, rows int, seed int64) *tsunami.Dataset {
	if sp.dataset == "tpch" {
		return datasets.TPCH(rows, seed)
	}
	return datasets.Taxi(rows, seed)
}

func makeInputs(sp spec, seed int64) *inputs {
	in := &inputs{data: generate(sp, sp.rows, layoutSeed)}
	in.train = workload.Generate(in.data.Store, sp.train(), trainPer, trainSeed)

	// Held-out test queries: same templates (or, for tpch_adhoc_scan, ones
	// the index was not trained for), literals drawn from -seed. The offset
	// keeps the test generator's stream apart from trainSeed's for any -seed.
	in.flat = workload.Generate(in.data.Store, sp.test(), sp.testPer, 1_000_003+seed)
	rng := rand.New(rand.NewSource(seed))
	if sp.zipfFlat > 0 {
		// Rank = position. Generate returns the queries type by type; deal
		// them out so that rank r holds type r mod types and the popular set
		// always has every type, whatever the seed, and keep a power of two.
		types := len(sp.test())
		dealt := make([]tsunami.Query, 0, len(in.flat))
		for k := 0; k < sp.testPer; k++ {
			for t := 0; t < types; t++ {
				dealt = append(dealt, in.flat[t*sp.testPer+k])
			}
		}
		n := 1
		for n*2 <= len(dealt) {
			n *= 2
		}
		in.flat = dealt[:n]
	}
	for i := 0; i < len(in.flat); i += sp.groupedEvery {
		q, k := in.flat[i], len(in.grouped)
		g := query.NewCount(q.Filters...)
		if k%3 == 2 {
			g = query.NewSum(sp.sumDim, q.Filters...)
		}
		g.Type = q.Type
		in.grouped = append(in.grouped, g.By(sp.groupDims[k%len(sp.groupDims)]))
	}

	if sp.zipfFlat > 0 {
		in.flatSeq = zipfDraws(rng, len(in.flat), sp.zipfFlat)
		in.groupedSeq = zipfDraws(rng, len(in.grouped), sp.zipfGrouped)
	} else {
		// One sweep of the list, in an order that mixes the query types
		// through every block of a pass.
		in.flatSeq = rng.Perm(len(in.flat))
		in.groupedSeq = rng.Perm(len(in.grouped))
	}
	stride := max(len(in.flatSeq)/floodPerPass, 1)
	for k := 0; k < len(in.flatSeq); k += stride {
		in.floodPos = append(in.floodPos, k)
	}
	return in
}

func zipfDraws(rng *rand.Rand, distinct, draws int) []int {
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(distinct-1))
	s := make([]int, draws)
	for i := range s {
		s[i] = int(z.Uint64())
	}
	return s
}

// insertRows draws n rows to ingest from the dataset's own generator, so
// they follow the table's distribution; the seed is offset away from
// layoutSeed so they are never the table's own rows.
func insertRows(sp spec, n int, seed int64) [][]int64 {
	st := generate(sp, n, 2_000_003+seed).Store
	d := st.NumDims()
	rows := make([][]int64, n)
	flat := make([]int64, n*d)
	for i := range rows {
		rows[i] = st.Row(i, flat[i*d:(i+1)*d:(i+1)*d])
	}
	return rows
}

// hash digests the generated inputs, so two runs can show they were fed the
// same bytes.
func (in *inputs) hash(rows [][]int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for d := 0; d < in.data.Store.NumDims(); d++ {
		for _, v := range in.data.Store.Column(d) {
			w(v)
		}
	}
	for _, qs := range [][]tsunami.Query{in.train, in.flat, in.grouped} {
		for _, q := range qs {
			w(int64(q.Agg))
			w(int64(q.AggDim))
			w(int64(q.GroupBy))
			for _, f := range q.Filters {
				w(int64(f.Dim))
				w(f.Lo)
				w(f.Hi)
			}
		}
	}
	for _, seq := range [][]int{in.flatSeq, in.groupedSeq} {
		for _, i := range seq {
			w(int64(i))
		}
	}
	for _, r := range rows {
		for _, v := range r {
			w(v)
		}
	}
	return h.Sum64()
}
