// Live monitoring over the observability endpoint: a LiveStore serves a
// Perfmon-like metrics table through an Executor while writers stream
// fresh samples in, and everything — queue depth, per-query latency
// histograms, ingest/merge timings, epoch publishes — records into one
// metrics registry exposed over HTTP. A workload-statistics collector
// rides along on the same store, fingerprinting every served query into
// heavy-hitter, selectivity, and SLO statistics. The monitor below never
// touches Stats() or the store directly: like a real dashboard it polls
// the endpoint (/statsz for rendered quantiles, /workloadz for the
// workload profile, /metrics for the raw Prometheus exposition a scraper
// would ingest) and renders what it sees.
//
//	go run ./examples/live-monitoring
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	tsunami "repro"
)

// statsz mirrors the /statsz JSON document (the monitor deliberately
// decodes it off the wire instead of importing registry types — this is
// what a dashboard in another process would do).
type statsz struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Hists    map[string]struct {
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean"`
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
	} `json:"histograms"`
}

// workloadz mirrors the parts of the /workloadz JSON document the monitor
// renders: heavy-hitter shapes and SLO compliance.
type workloadz struct {
	Queries      uint64 `json:"queries"`
	Sampled      uint64 `json:"sampled"`
	SampleEvery  int    `json:"sample_every"`
	Fingerprints []struct {
		Shape string  `json:"shape"`
		Share float64 `json:"share"`
		P99   float64 `json:"p99_seconds"`
	} `json:"fingerprints"`
	SLO []struct {
		Latency float64 `json:"latency_seconds"`
		Target  float64 `json:"target"`
		BadFrac float64 `json:"bad_frac"`
		Burn    float64 `json:"burn_rate"`
	} `json:"slo"`
}

func main() {
	const rows = 60_000
	ds := tsunami.GeneratePerfmon(rows, 1)
	work := tsunami.WorkloadFor(ds, 40, 2)
	idx := tsunami.New(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32})

	// One registry across the stack: the store records ingest and
	// maintenance, the executor records queue wait/depth, both feed the
	// shared query-path histograms. The workload collector fingerprints
	// every query the store serves (the store binds it at Open, so it
	// knows dimension names and domains for selectivity stats).
	m := tsunami.NewMetrics()
	wl := tsunami.NewWorkloadStats(tsunami.WorkloadOptions{})
	ls := tsunami.NewLiveStore(idx, work, tsunami.LiveOptions{Metrics: m, Workload: wl, MergeThreshold: 4096})
	defer ls.Close()
	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{Workers: 2, Metrics: m})
	defer ex.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go http.Serve(ln, tsunami.MetricsHandlerWith(m, wl))
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %s/metrics (Prometheus), /statsz + /workloadz (JSON), /debug/pprof/\n\n", base)

	// Load: one writer streams perturbed samples (forcing background
	// merges straight through the monitored window), one reader drives
	// dashboard batches through the executor pool.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		batch := make([][]int64, 32)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := range batch {
				batch[k] = []int64{
					525000 + rng.Int63n(600), rng.Int63n(1000),
					rng.Int63n(10000), rng.Int63n(5000),
					rng.Int63n(3000), rng.Int63n(3000),
					500 + rng.Int63n(9500),
				}
			}
			if err := ls.InsertBatch(batch); err != nil {
				panic(err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ex.ExecuteBatch(work)
			}
		}
	}()

	// The monitor: poll /statsz like a dashboard refresh loop.
	fmt.Printf("%-5s %10s %10s %10s %6s %11s %7s %6s\n",
		"tick", "queries", "qry p50", "qry p99", "queue", "ingest p99", "merges", "epoch")
	client := &http.Client{Timeout: 2 * time.Second}
	for tick := 1; tick <= 5; tick++ {
		time.Sleep(400 * time.Millisecond)
		resp, err := client.Get(base + "/statsz")
		if err != nil {
			panic(err)
		}
		var s statsz
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			panic(err)
		}
		lat := s.Hists["tsunami_query_latency_seconds"]
		fmt.Printf("%-5d %10d %10s %10s %6.0f %11s %7d %6.0f\n",
			tick, lat.Count,
			fmtSec(lat.P50), fmtSec(lat.P99),
			s.Gauges["tsunami_exec_queue_depth"],
			fmtSec(s.Hists["tsunami_live_ingest_latency_seconds"].P99),
			s.Counters["tsunami_live_merges_total"],
			s.Gauges["tsunami_live_epoch"])
	}
	close(stop)
	wg.Wait()

	// The workload profile, off the wire like everything else: which query
	// shapes dominated the run, and how the latency SLOs fared under it.
	resp0, err := client.Get(base + "/workloadz")
	if err != nil {
		panic(err)
	}
	var w workloadz
	err = json.NewDecoder(resp0.Body).Decode(&w)
	resp0.Body.Close()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n/workloadz: %d queries recorded (%d sampled 1-in-%d), top shapes:\n",
		w.Queries, w.Sampled, w.SampleEvery)
	for i, f := range w.Fingerprints {
		if i == 3 {
			break
		}
		fmt.Printf("  #%d %-40s %5.1f%%  p99 %s\n", i+1, f.Shape, f.Share*100, fmtSec(f.P99))
	}
	for _, o := range w.SLO {
		fmt.Printf("  slo <%s target %.2f%%: %.3f%% bad, burn %.2fx\n",
			fmtSec(o.Latency), o.Target*100, o.BadFrac*100, o.Burn)
	}

	// Show the raw exposition surface too: the lines a Prometheus scraper
	// would store for the merge/backlog families the dashboard rendered.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		panic(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		panic(err)
	}
	fmt.Println("\nraw /metrics exposition (merge + buffered-rows families):")
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.Contains(line, "tsunami_live_merges") || strings.Contains(line, "tsunami_live_buffered_rows") {
			fmt.Println("  " + line)
		}
	}
}

func fmtSec(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}
