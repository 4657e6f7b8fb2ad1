package main

import (
	"fmt"
	"runtime"
	"time"

	tsunami "repro"
)

// config is one run of one workload.
type config struct {
	sp      spec
	seed    int64
	seconds float64 // measured window
	trace   bool
}

// warmup is the discarded lead-in before the window: pools, byte-code images
// and the result cache fill, and the first passes are measurably slower.
func (c config) warmup() float64 { return 0.25 * c.seconds }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. The four exported fields are the line the
// driver reads; Env and spans go to the files beside it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	env      *envInfo
	spans    []span
	firstErr string
}

// runner carries one run's state between its phases.
type runner struct {
	cfg   config
	in    *inputs
	st    *stack
	flood *tsunami.FloodIndex
	want  *expected
	// checkServed is off while a writer is changing the served answers.
	checkServed bool
	ref         *naiveRef
	res         *result

	pass  *pass
	sv    servers
	began time.Time

	// Traced runs only: the indexes as built and the Grid Tree regions a
	// pass visits, both taken before ingest.
	built          []*tsunami.TsunamiIndex
	regionsVisited float64
	passSpans      []span // root spans of the last traced pass
}

// passStats are the figures of one pass.
type passStats struct {
	qps                  float64 // sum over clients of queries served per second of serving
	p50, p99, gp50, gp99 float64 // µs
	stallUs              float64 // slowest flat query, µs
	traced               bool    // span recording was on
	refUs                float64 // the naive reference: median of the pass's block sweeps, µs
	floodUs              float64 // Flood's mean latency on the pass's Flood queries, µs
	speedup              float64 // Flood's time over the served time on those same queries
	scanFrac             float64 // served bytes per second over the naive reference's
}

func (r *runner) servers() servers {
	// r.st is read at call time: set-up replaces it.
	return servers{
		flat: func(q tsunami.Query) (answer, error) {
			res, err := r.st.flat(q)
			return flatAnswer(res), err
		},
		grouped: func(q tsunami.Query) (answer, error) {
			res, err := r.st.grouped(q)
			return groupedAnswer(res), err
		},
		flood: func(q tsunami.Query) answer { return flatAnswer(r.flood.Execute(q)) },
	}
}

// passes runs passes until `seconds` have passed and there are at least
// atLeast of them. A traced run records spans in every other pass.
func (r *runner) passes(seconds float64, atLeast int) []passStats {
	in, sp, p := r.in, r.cfg.sp, r.pass
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var out []passStats
	for {
		var want *expected
		if r.checkServed {
			want = r.want
		}
		traced := r.cfg.trace && len(out)%2 == 1
		var traceRef time.Time
		if traced {
			traceRef = r.began
		}
		p.run(in, r.sv, want, r.want, sp.clients, r.ref, traceRef)

		ps := passStats{traced: traced}
		for c := 0; c < sp.clients; c++ {
			var ns int64
			var n int
			lo, hi := c*len(p.blocks)/sp.clients, (c+1)*len(p.blocks)/sp.clients
			for b := lo; b < hi; b++ {
				ns += p.stats[b].flatNs + p.stats[b].groupedNs
				n += p.blocks[b].flatHi - p.blocks[b].flatLo + p.blocks[b].groupedHi - p.blocks[b].groupedLo
			}
			ps.qps += float64(n) / (float64(ns) / 1e9)
			r.res.Failed += p.failed[c]
		}
		r.res.Attempted += len(in.flatSeq) + len(in.floodPos) + len(in.groupedSeq)
		if traced {
			r.keepSpans(p)
		}
		ps.p50, ps.p99 = percentileUs(p.flatLat, 0.50), percentileUs(p.flatLat, 0.99) // sorts flatLat
		ps.stallUs = float64(p.flatLat[len(p.flatLat)-1]) / 1e3
		ps.gp50, ps.gp99 = percentileUs(p.groupedLat, 0.50), percentileUs(p.groupedLat, 0.99)
		refs := make([]float64, len(p.stats))
		var sum blockStat
		for k, b := range p.stats {
			refs[k] = float64(b.refNs) / 1e3
			sum.flatNs, sum.groupedNs, sum.bytes = sum.flatNs+b.flatNs, sum.groupedNs+b.groupedNs, sum.bytes+b.bytes
			sum.pairFlood, sum.pairServeNs = sum.pairFlood+b.pairFlood, sum.pairServeNs+b.pairServeNs
		}
		ps.refUs = median(refs)
		ps.floodUs = float64(sum.pairFlood) / 1e3 / float64(len(in.floodPos))
		ps.speedup = float64(sum.pairFlood) / float64(sum.pairServeNs)
		ps.scanFrac = float64(sum.bytes) / float64(sum.flatNs+sum.groupedNs) / (r.ref.bytes() / (ps.refUs * 1e3))
		out = append(out, ps)
		if !time.Now().Before(deadline) && len(out) >= atLeast {
			return out
		}
	}
}

func column(ps []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func run(cfg config) (*result, error) {
	sp := cfg.sp
	load := sp.clients
	if sp.writerRowsPerSec > 0 {
		load++
	}
	if load > runtime.NumCPU() {
		return nil, fmt.Errorf("%s drives %d load goroutines but this machine has %d CPUs: the generator would measure the scheduler", sp.name, load, runtime.NumCPU())
	}
	began := time.Now()
	res := &result{Metrics: map[string]metric{}}
	r := &runner{cfg: cfg, res: res, began: began}
	r.sv = r.servers()

	t0 := time.Now()
	r.in = makeInputs(sp, cfg.seed)
	in := r.in
	r.ref = newNaiveRef(in.data)
	env := newEnv(cfg, in.data.Rows(), in.data.Dims())
	res.env = env
	env.InputGenS = time.Since(t0).Seconds()
	r.pass = newPass(in)
	env.DistinctQueries = len(in.flat)
	env.FlatPerPass, env.GroupedPerPass, env.FloodPerPass = len(in.flatSeq), len(in.groupedSeq), len(in.floodPos)

	// Set-up, timed: build what the workload serves from.
	for i := 0; i < sp.repeats(cfg.trace); i++ {
		if r.st != nil {
			if err := r.st.close(); err != nil {
				return nil, err
			}
			r.st = nil
			runtime.GC()
		}
		t0 = time.Now()
		st, err := setUp(sp, in)
		if err != nil {
			return nil, err
		}
		env.SetupS = append(env.SetupS, time.Since(t0).Seconds())
		r.st = st
	}
	defer func() { _ = r.st.close() }() // results are already verified; nothing is persisted
	indexBytes := r.st.sizeBytes()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMiB := float64(ms.HeapAlloc) / (1 << 20)

	t0 = time.Now()
	r.flood = tsunami.NewFlood(in.data.Store, in.train, sp.options())
	env.FloodBuildS = time.Since(t0).Seconds()

	// Rows to ingest: the paced stream (with slack for a window that runs
	// over) and the bursts.
	paced := 0
	if sp.writerRowsPerSec > 0 {
		paced = int(float64(sp.writerRowsPerSec)*(cfg.warmup()+cfg.seconds)*1.5) + 64*batchRows
	}
	burst := sp.repeats(cfg.trace) * sp.burstRows()
	t0 = time.Now()
	rows := insertRows(sp, paced+burst, cfg.seed)
	env.InputGenS += time.Since(t0).Seconds()
	env.InputHash = fmt.Sprintf("%016x", in.hash(rows))

	// Correctness before timing.
	t0 = time.Now()
	v := verify(r.st, r.flood, in, sp.groupedEvery)
	r.want = &v.want
	env.VerifyS = time.Since(t0).Seconds()

	if cfg.trace {
		r.countRegions()
	}
	m := r.measureWindow(v, rows[:paced])
	if cfg.trace {
		// The ladder climbs the indexes the window was served from, so it runs
		// before the bursts merge their rows into them.
		r.climbLadders()
	}
	r.measureBursts(v, m, rows[paced:])
	if cfg.trace {
		r.reportLayers(v, m)
	} else {
		r.reportEndToEnd(m, indexBytes, heapMiB)
	}

	res.Attempted += v.attempted
	res.Failed += v.failed
	res.firstErr = v.firstErr
	res.Correct = res.Failed == 0
	env.WallS = time.Since(began).Seconds()
	return res, nil
}

// measured is what the timed part of a run leaves behind.
type measured struct {
	passes    []passStats  // the window's
	pw        *pacedWriter // stopped; nil when the workload has no paced writer
	flushS    float64      // Flush after the paced stream
	merges    int64        // background merges up to the end of that Flush
	mergeS    float64      // and the time they took
	inserted  [][]int64    // every acknowledged row so far
	burstRate []float64    // rows/s of each writer-only burst
	insertNs  []int64      // InsertBatch acknowledgement latencies
	// Router and cache counters over the window.
	shardedBefore, shardedAfter tsunami.ShardedStats
	cacheBefore, cacheAfter     tsunami.CacheStats
}

// measureWindow is the first timed part: warm-up, then the window of passes,
// beside the paced writer if the workload has one; then the writer stops, the
// store is flushed and its contents proved.
func (r *runner) measureWindow(v *verification, pacedRows [][]int64) *measured {
	cfg, sp, st, env := r.cfg, r.cfg.sp, r.st, r.res.env
	m := &measured{}
	r.checkServed = true
	if sp.writerRowsPerSec > 0 {
		r.checkServed = false
		pacedRows = shardRuns(pacedRows, st.sharded.Partitioner(), mergeThreshold)
		var poll func() int
		if cfg.trace {
			poll = func() int { return st.sharded.Stats().BufferedRows }
		}
		m.pw = startPacedWriter(st.openWriter(), pacedRows, sp.writerRowsPerSec, poll)
	}

	// Warm-up passes are checked and counted like any other, only not timed.
	r.passes(cfg.warmup(), 1)
	if st.sharded != nil {
		m.shardedBefore = st.sharded.Stats()
	}
	if st.live != nil {
		m.cacheBefore = st.live.CacheStats()
	}
	m.passes = r.passes(cfg.seconds, 2) // two, so that a traced run has a pass of each kind
	if st.sharded != nil {
		m.shardedAfter = st.sharded.Stats()
	}
	if st.live != nil {
		m.cacheAfter = st.live.CacheStats()
	}

	if pw := m.pw; pw != nil {
		pw.wait()
		m.inserted, m.insertNs = pacedRows[:pw.acked], pw.latNs
		r.res.Attempted += pw.batches
		r.res.Failed += pw.failed
		if pw.firstErr != nil && v.firstErr == "" {
			v.firstErr = fmt.Sprintf("paced insert: %v", pw.firstErr)
		}
		env.Notes["paced_rows_acked"] = float64(pw.acked)
		t0 := time.Now()
		if err := st.openWriter().Flush(); err != nil {
			v.fail("flush after the paced stream: %v", err)
		}
		m.flushS = time.Since(t0).Seconds()
		m.merges, m.mergeS = st.merges.Load(), float64(st.mergeNs.Load())/1e9
		verifyAfterIngest(v, st, r.in, m.inserted)
	}

	per := func(f func(passStats) float64) []float64 { return column(m.passes, f) }
	vsRef := func(f func(passStats) float64) []float64 {
		return per(func(p passStats) float64 { return f(p) / p.refUs })
	}
	qps, p50, p99 := func(p passStats) float64 { return p.qps }, func(p passStats) float64 { return p.p50 }, func(p passStats) float64 { return p.p99 }
	gp50, gp99 := func(p passStats) float64 { return p.gp50 }, func(p passStats) float64 { return p.gp99 }
	env.Passes = map[string][]float64{
		"setup_s": env.SetupS,
		"ref_us":  per(func(p passStats) float64 { return p.refUs }),
		// Flood beside the served stack on the same queries, and the served
		// bytes per second over the naive reference's.
		"speedup_vs_flood_x": per(func(p passStats) float64 { return p.speedup }),
		"scan_bw_frac":       per(func(p passStats) float64 { return p.scanFrac }),
		// The wall-clock figures, and each over the same pass's naive reference.
		"queries_per_s": per(qps), "queries_per_ref": per(func(p passStats) float64 { return p.qps * p.refUs / 1e6 }),
		"query_us_p50": per(p50), "query_p50_vs_ref_x": vsRef(p50),
		"query_us_p99": per(p99), "query_p99_vs_ref_x": vsRef(p99),
		"grouped_us_p50": per(gp50), "grouped_p50_vs_ref_x": vsRef(gp50),
		"grouped_us_p99": per(gp99), "grouped_p99_vs_ref_x": vsRef(gp99),
	}
	env.Notes["passes"], env.Notes["blocks_per_pass"] = float64(len(m.passes)), float64(len(r.pass.blocks))
	env.Notes["latency_samples"] = float64(len(m.passes) * (len(r.in.flatSeq) + len(r.in.groupedSeq)))
	return m
}

// measureBursts is the second timed part, the writer-only bursts: InsertBatch
// in batchRows batches, then Flush, and the store's contents proved again.
// The naive reference is swept just before and just after each burst, not
// inside it: a sweep would hand the background merges free time.
func (r *runner) measureBursts(v *verification, m *measured, burstRows [][]int64) {
	const sweeps = 5
	st, env, n := r.st, r.res.env, r.cfg.sp.burstRows()
	w := st.openWriter()
	var perRef, refUs []float64
	for b := 0; (b+1)*n <= len(burstRows); b++ {
		part := burstRows[b*n : (b+1)*n]
		before := r.ref.sweepsUs(sweeps)
		t0 := time.Now()
		for k := 0; k+batchRows <= len(part); k += batchRows {
			tb := time.Now()
			err := w.InsertBatch(part[k : k+batchRows])
			if m.pw == nil {
				m.insertNs = append(m.insertNs, int64(time.Since(tb)))
			}
			r.res.Attempted++
			if err != nil {
				v.fail("burst insert: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			v.fail("burst flush: %v", err)
		}
		rate := float64(len(part)) / time.Since(t0).Seconds()
		ref := median(append(before, r.ref.sweepsUs(sweeps)...))
		m.burstRate, perRef, refUs = append(m.burstRate, rate), append(perRef, rate*ref/1e6), append(refUs, ref)
		m.inserted = append(m.inserted, part...)
	}
	verifyAfterIngest(v, st, r.in, m.inserted)

	env.Passes["ingest_rows_per_s"], env.Passes["ingest_rows_per_ref"], env.Passes["burst_ref_us"] = m.burstRate, perRef, refUs
	env.Notes["insert_us_p50"] = percentileUs(m.insertNs, 0.50)
	for name, s := range env.Passes {
		env.MAD[name] = mad(s)
	}
}

// reportEndToEnd reports the metrics with bounds. Each timing is taken per
// pass (or per burst) over that pass's own naive reference, or over Flood on
// the same queries, and reported as the median over passes. setup_s is the
// one bare wall-clock figure. See README.md for why the others are not.
func (r *runner) reportEndToEnd(m *measured, indexBytes uint64, heapMiB float64) {
	env, put := r.res.env, r.res.put
	for _, name := range []string{"setup_s", "queries_per_ref", "query_p50_vs_ref_x", "query_p99_vs_ref_x", "grouped_p50_vs_ref_x", "grouped_p99_vs_ref_x", "speedup_vs_flood_x", "scan_bw_frac"} {
		put(name, median(env.Passes[name]))
	}
	// The bursts are not repeats of one measurement: each finds the store one
	// burst larger and its merges slower (61, 53 and 50 rows per reference on
	// taxi_live_mixed), so the median is nearly always the second burst and
	// carries all of that one burst's noise. Their mean over ten seeds spread
	// by 6-8% on the four workloads where their median spread by 9-15%.
	put("ingest_rows_per_ref", mean(env.Passes["ingest_rows_per_ref"]))
	put("index_bytes", float64(indexBytes))
	put("heap_mib", heapMiB)
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// put records a metric under its declared name; an undeclared name is a bug.
func (res *result) put(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	res.Metrics[name] = metric{Value: v, Unit: unit}
}
