package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	tsunami "repro"
	"repro/internal/stats"
)

// median is the nearest-rank median, 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Percentile(v, 50)
}

// mean is the arithmetic mean, 0 for no samples.
func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(max(len(v), 1))
}

// mad is the median absolute deviation from the median.
func mad(v []float64) float64 {
	m := median(v)
	d := make([]float64, len(v))
	for i, x := range v {
		d[i] = math.Abs(x - m)
	}
	return median(d)
}

// percentileUs is the nearest-rank p-th percentile of ns samples, in µs.
// It sorts ns in place.
func percentileUs(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	i := int(math.Ceil(p*float64(len(ns)))) - 1
	return float64(ns[max(i, 0)]) / 1e3
}

func meanUs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var s int64
	for _, v := range ns {
		s += v
	}
	return float64(s) / float64(len(ns)) / 1e3
}

// expected holds the verified answers a pass checks each result against,
// indexed like inputs.flat and inputs.grouped.
type expected struct {
	flat, grouped []answer
}

// groupedDigest folds a grouped answer's (key, count, sum) triples.
func groupedDigest(r tsunami.GroupedResult) uint64 {
	h := uint64(len(r.Groups))
	for _, g := range r.Groups {
		h = (h ^ uint64(g.Key)) * 1099511628211
		h = (h ^ g.Count) * 1099511628211
		h = (h ^ uint64(g.Sum)) * 1099511628211
	}
	return h
}

// answer is what a pass keeps of one query's result.
type answer struct {
	count  uint64
	digest uint64 // Sum for flat answers, groupedDigest for grouped ones
	bytes  uint64
	points uint64
}

// same reports whether two answers hold the same aggregate.
func (a answer) same(o answer) bool { return a.count == o.count && a.digest == o.digest }

func flatAnswer(r tsunami.Result) answer {
	return answer{count: r.Count, digest: uint64(r.Sum), bytes: r.BytesTouched, points: r.PointsScanned}
}

func groupedAnswer(r tsunami.GroupedResult) answer {
	return answer{count: r.TotalCount(), digest: groupedDigest(r), bytes: r.BytesTouched, points: r.PointsScanned}
}

// A pass is cut into blocks. In each block a client sweeps the naive
// reference, serves blockFlat flat queries, lets Flood answer the ones at
// inputs.floodPos, and serves the block's share of the grouped queries, back
// to back. On a shared host interference comes in bursts of a fraction of a
// second, far longer than a block, so within a block it slows all four
// alike, and a pass's totals set like against like.
const blockFlat = 60

// block is one block's share of a pass, as positions in the sequences.
type block struct {
	flatLo, flatHi       int
	groupedLo, groupedHi int
	flood                []int // positions in flatSeq that Flood answers too
}

// blockStat is what one executed block contributes.
type blockStat struct {
	flatNs, groupedNs      int64 // sums of served latencies
	pairServeNs, pairFlood int64 // served and Flood latencies of the block's Flood queries
	bytes                  uint64
	refNs, refSum          int64 // the block's own sweep of the naive reference, and what it summed
}

// pass is the reusable state of one pass over the sequences.
type pass struct {
	blocks     []block
	stats      []blockStat
	flatLat    []int64 // by position in flatSeq
	groupedLat []int64 // by position in groupedSeq
	flatStart  []int64 // ns since traceRef, traced passes only
	failed     []int   // per client
}

func newPass(in *inputs) *pass {
	nb := (len(in.flatSeq) + blockFlat - 1) / blockFlat
	p := &pass{
		blocks: make([]block, nb), stats: make([]blockStat, nb),
		flatLat: make([]int64, len(in.flatSeq)), groupedLat: make([]int64, len(in.groupedSeq)),
		flatStart: make([]int64, len(in.flatSeq)),
	}
	f := 0
	for b := range p.blocks {
		bl := &p.blocks[b]
		bl.flatLo, bl.flatHi = b*blockFlat, min((b+1)*blockFlat, len(in.flatSeq))
		bl.groupedLo, bl.groupedHi = b*len(in.groupedSeq)/nb, (b+1)*len(in.groupedSeq)/nb
		for ; f < len(in.floodPos) && in.floodPos[f] < bl.flatHi; f++ {
			bl.flood = append(bl.flood, in.floodPos[f])
		}
	}
	return p
}

// servers are a stack's entry points as a pass calls them.
type servers struct {
	flat, grouped func(q tsunami.Query) (answer, error)
	flood         func(q tsunami.Query) answer
}

// run executes the pass from `clients` closed-loop goroutines, each taking a
// contiguous share of the blocks. want, when non-nil, holds the verified
// answers every result is checked against; Flood's are always checked. Each
// client sweeps ref once at the head of every block. traceRef, when non-zero,
// makes the pass record each flat query's start time.
func (p *pass) run(in *inputs, sv servers, want, floodWant *expected, clients int, ref *naiveRef, traceRef time.Time) {
	p.failed = make([]int, clients)
	client := func(c, lo, hi int) {
		for b := lo; b < hi; b++ {
			bl, st := p.blocks[b], &p.stats[b]
			*st = blockStat{}
			st.refNs, st.refSum = ref.sweepNs(b)
			for k := bl.flatLo; k < bl.flatHi; k++ {
				i := in.flatSeq[k]
				t0 := time.Now()
				a, err := sv.flat(in.flat[i])
				ns := int64(time.Since(t0))
				p.flatLat[k] = ns
				if !traceRef.IsZero() {
					p.flatStart[k] = int64(t0.Sub(traceRef))
				}
				st.flatNs += ns
				st.bytes += a.bytes
				if err != nil || want != nil && !a.same(want.flat[i]) {
					p.failed[c]++
				}
			}
			for _, k := range bl.flood {
				i := in.flatSeq[k]
				t0 := time.Now()
				a := sv.flood(in.flat[i])
				st.pairFlood += int64(time.Since(t0))
				st.pairServeNs += p.flatLat[k]
				if !a.same(floodWant.flat[i]) {
					p.failed[c]++
				}
			}
			for k := bl.groupedLo; k < bl.groupedHi; k++ {
				i := in.groupedSeq[k]
				t0 := time.Now()
				a, err := sv.grouped(in.grouped[i])
				ns := int64(time.Since(t0))
				p.groupedLat[k] = ns
				st.groupedNs += ns
				st.bytes += a.bytes
				if err != nil || want != nil && !a.same(want.grouped[i]) {
					p.failed[c]++
				}
			}
		}
	}
	if clients <= 1 {
		client(0, 0, len(p.blocks))
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c, c*len(p.blocks)/clients, (c+1)*len(p.blocks)/clients)
			}(c)
		}
		wg.Wait()
	}
}

// naiveRef is the in-process reference every timing is set against. One
// sweep is two pieces of naive work over the table's own columns: a
// row-at-a-time filtered count over a window of two columns (sequential, as
// a query scans a long range), then single-row reads at pseudo-random rows
// of a third (scattered, as a query jumps between the short ranges of its
// grid cells). Plain Go written here, nothing of colstore's, so no change to
// the repository makes it faster; and it is the same kind of work on the
// same memory as a query, so what slows the shared host slows both: across
// ten runs on a busy host the two halves' times spread by 11% and 21%, the
// median query's by 14% and its ratio to their sum by 3%. Sweep k takes the
// k-th window and another column, so the sweeps walk the table.
type naiveRef struct {
	cols          [][]int64
	rows, gathers int // per sweep
}

func newNaiveRef(d *tsunami.Dataset) *naiveRef {
	r := &naiveRef{rows: min(65536, d.Rows()/2), gathers: 16384}
	for c := 0; c < d.Dims(); c++ {
		r.cols = append(r.cols, d.Store.Column(c))
	}
	return r
}

// bytes is what one sweep reads.
func (r *naiveRef) bytes() float64 { return float64(r.rows)*16 + float64(r.gathers)*8 }

// sweepNs times sweep k. Safe from several clients at once. The sum is
// returned so that the loops are not compiled away.
func (r *naiveRef) sweepNs(k int) (ns int64, sum int64) {
	n := len(r.cols[0])
	off := (k * 40503) % (n - r.rows)
	a, b := r.cols[0][off:off+r.rows], r.cols[len(r.cols)-1][off:off+r.rows]
	col := r.cols[k%len(r.cols)]
	x := uint64(k)*2654435761 + 12345
	t0 := time.Now()
	lo, hi := a[0], b[0]
	for i := range a {
		if a[i] >= lo && b[i] <= hi {
			sum++
		}
	}
	for i := 0; i < r.gathers; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // Knuth's 64-bit LCG
		sum += col[(x>>33)%uint64(n)]
	}
	return int64(time.Since(t0)), sum
}

// sweepsUs times n sweeps back to back, in µs.
func (r *naiveRef) sweepsUs(n int) []float64 {
	us := make([]float64, n)
	for i := range us {
		ns, _ := r.sweepNs(i)
		us[i] = float64(ns) / 1e3
	}
	return us
}

// shardRuns reorders the paced stream into runs of `run` rows that all belong
// to one shard, shard after shard in turn. A run of mergeThreshold rows fills
// its shard's buffer exactly to the merge threshold, so that shard merges
// while the next run goes elsewhere, and no two shards merge at once. Left in
// generated order the stream fills every shard at the same rate; over nine
// runs their merges then coincided for anything from 3% to 25% of the window,
// and with the reader and two merges on two CPUs the reader runs at half
// speed for that long (with one merge beside it, at 0.9 of full speed). Rows
// left over when a shard cannot fill its next run are dropped.
func shardRuns(rows [][]int64, parts tsunami.Partitioner, run int) [][]int64 {
	queues := make([][][]int64, parts.NumShards())
	for _, r := range rows {
		s := parts.ShardOf(r)
		queues[s] = append(queues[s], r)
	}
	out := make([][]int64, 0, len(rows))
	for {
		for s := range queues {
			if len(queues[s]) < run {
				return out
			}
			out = append(out, queues[s][:run]...)
			queues[s] = queues[s][run:]
		}
	}
}

// pacedWriter is the open-loop writer: batch k is due k batch intervals
// after start whether or not earlier batches were slow, and its latency is
// counted from when it was due.
type pacedWriter struct {
	w        writer
	rows     [][]int64
	interval time.Duration
	poll     func() int // buffered rows right now; nil outside traced runs

	stop chan struct{}
	done chan struct{}

	// Read after wait.
	acked       int     // rows acknowledged
	batches     int     // batches attempted
	failed      int     // batches that returned an error
	latNs       []int64 // acknowledgement latency from the due time
	lateMaxMs   float64 // how late the generator itself ran, worst batch
	bufferedMax int
	firstErr    error
}

func startPacedWriter(w writer, rows [][]int64, rowsPerSec int, poll func() int) *pacedWriter {
	p := &pacedWriter{
		w: w, rows: rows, poll: poll,
		interval: time.Duration(float64(batchRows) / float64(rowsPerSec) * float64(time.Second)),
		stop:     make(chan struct{}), done: make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *pacedWriter) run() {
	defer close(p.done)
	start := time.Now()
	for k := 0; (k+1)*batchRows <= len(p.rows); k++ {
		due := start.Add(time.Duration(k) * p.interval)
		// Sleep to just short of the due time, then yield-spin: a Go timer
		// alone fires up to a millisecond late, which would be most of an
		// acknowledgement's latency.
		select {
		case <-p.stop:
			return
		case <-time.After(time.Until(due) - 2*time.Millisecond):
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		sent := time.Now()
		p.lateMaxMs = max(p.lateMaxMs, float64(sent.Sub(due))/1e6)
		p.batches++
		if err := p.w.InsertBatch(p.rows[k*batchRows : (k+1)*batchRows]); err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
			continue
		}
		p.latNs = append(p.latNs, int64(time.Since(due)))
		p.acked += batchRows
		if p.poll != nil {
			p.bufferedMax = max(p.bufferedMax, p.poll())
		}
	}
}

// wait stops the writer and returns once its goroutine has exited.
func (p *pacedWriter) wait() {
	close(p.stop)
	<-p.done
}
