// Serving: the serving stack end to end over one taxi table.
//
//  1. A LiveStore serves dashboards through an Executor: a batch fanned
//     across the worker pool must match inline execution.
//  2. Four writers stream fresh trips in while readers serve; inserts
//     publish copy-on-write epochs and background merges fold them in.
//     Mid-run the query mix shifts to one the index was never optimized
//     for, and the shift detector re-optimizes the drifted regions.
//  3. A monitor that never touches the store polls the observability
//     endpoint like a dashboard would: /statsz (rendered quantiles),
//     /workloadz (the workload profile) and /metrics (Prometheus text).
//  4. The same table is served by a 4-shard ShardedStore (learned range
//     cuts on pickup_time): routed reads prune shards, ingest runs in
//     parallel, and a batch through the Executor matches inline.
//  5. Both stores snapshot and recover, and the recovered stores answer
//     exactly like the originals.
//
// It exits non-zero on any divergence.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	tsunami "repro"
)

const rows = 60_000

func main() {
	ds := tsunami.GenerateTaxi(rows, 1)
	// Dashboards the index is optimized for: recent trips by distance.
	dashboards := tsunami.GenerateWorkload(ds.Store, []tsunami.TypeSpec{
		{Name: "recent-by-distance", Dims: []tsunami.DimSpec{
			{Dim: 0, Sel: 0.1, Jitter: 0.2, Skew: tsunami.SkewRecent}, // pickup_time
			{Dim: 2, Sel: 0.15, Jitter: 0.2},                          // distance
		}},
	}, 120, 2)
	// Audits the index was never optimized for: fare by passengers.
	audits := tsunami.GenerateWorkload(ds.Store, []tsunami.TypeSpec{
		{Name: "audit-by-fare", Dims: []tsunami.DimSpec{
			{Dim: 3, Sel: 0.1, Jitter: 0.2}, // fare
			{Dim: 6, Sel: 0.3, Jitter: 0.2}, // passengers
		}},
	}, 120, 3)
	opts := tsunami.Options{OptimizerIters: 2, MaxOptQueries: 48}

	fmt.Printf("building Tsunami over %d taxi rows...\n", rows)
	m := tsunami.NewMetrics()
	wl := tsunami.NewWorkloadStats(tsunami.WorkloadOptions{})
	ls := tsunami.NewLiveStore(tsunami.New(ds.Store, dashboards, opts), dashboards, tsunami.LiveOptions{
		MergeThreshold: 1000,
		Metrics:        m,
		Workload:       wl,
		OnEvent: func(ev tsunami.LiveEvent) {
			switch ev.Kind {
			case tsunami.LiveEventReoptimize:
				fmt.Printf("  [maintenance] workload shift: re-optimized %d regions in %.2fs (epoch %d)\n",
					ev.RegionsRebuilt, ev.Seconds, ev.Epoch)
			case tsunami.LiveEventError:
				log.Fatalf("maintenance error: %v", ev.Err)
			}
		},
	})
	defer ls.Close()
	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{Workers: 4, Metrics: m})
	defer ex.Close()

	fmt.Println("\n1. Executor over a LiveStore")
	checkExecutor(ls, dashboards)

	fmt.Println("\n2. 4 writers streaming trips, readers serving through the Executor")
	var mix atomic.Pointer[[]tsunami.Query]
	mix.Store(&dashboards)
	stop := serve(ds.Store, ls.InsertBatch, func() { ex.ExecuteBatch(*mix.Load()) })
	waitFor("a background merge", func() bool { return ls.Stats().Merges > 0 })
	fmt.Println("  query mix shifts to fare/passenger audits")
	mix.Store(&audits)
	waitFor("a shift-triggered re-optimization", func() bool { return ls.Stats().Reoptimizations > 0 })
	stop()
	st := ls.Stats()
	fmt.Printf("  epoch %d: %d queries, %d inserts, %d merges, %d re-optimizations\n",
		st.Epoch, st.Queries, st.Inserts, st.Merges, st.Reoptimizations)

	fmt.Println("\n3. monitoring over HTTP")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, tsunami.MetricsHandlerWith(m, wl))
	base := "http://" + ln.Addr().String()
	var statsz struct {
		Counters map[string]uint64 `json:"counters"`
		Hists    map[string]struct {
			Count uint64  `json:"count"`
			P99   float64 `json:"p99"`
		} `json:"histograms"`
	}
	decode(base+"/statsz", &statsz)
	lat := statsz.Hists["tsunami_query_latency_seconds"]
	fmt.Printf("  /statsz: %d queries, p99 %.0fµs, %d merges\n",
		lat.Count, 1e6*lat.P99, statsz.Counters["tsunami_live_merges_total"])
	var workloadz struct {
		Queries      uint64 `json:"queries"`
		Fingerprints []struct {
			Shape string  `json:"shape"`
			Share float64 `json:"share"`
		} `json:"fingerprints"`
	}
	decode(base+"/workloadz", &workloadz)
	if len(workloadz.Fingerprints) == 0 {
		log.Fatal("/workloadz recorded no query shapes")
	}
	fmt.Printf("  /workloadz: %d queries recorded, top shape %s (%.1f%%)\n",
		workloadz.Queries, workloadz.Fingerprints[0].Shape, 100*workloadz.Fingerprints[0].Share)
	fmt.Println("  /metrics (merge families):")
	for _, line := range strings.Split(string(get(base+"/metrics")), "\n") {
		if strings.HasPrefix(line, "tsunami_live_merges") {
			fmt.Println("    " + line)
		}
	}

	fmt.Println("\n4. 4-shard ShardedStore, learned range cuts on pickup_time")
	ss, err := tsunami.NewShardedStore(ds.Store, dashboards, opts, tsunami.ShardedOptions{
		Shards: 4, Learned: true, Live: tsunami.LiveOptions{MergeThreshold: 1000},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ss.Close()
	fmt.Printf("  a recency dashboard: %d trips, routed to %d of 4 shards\n",
		ss.Execute(dashboards[0]).Count, ss.Stats().ShardsScanned)
	stop = serve(ds.Store, ss.InsertBatch, func() { ss.Execute(dashboards[rand.Intn(len(dashboards))]) })
	waitFor("4 shard merges", func() bool { return ss.Stats().Merges >= 4 })
	stop()
	sst := ss.Stats()
	fmt.Printf("  %d inserts, %d merges, mean fan-out %.2f\n",
		sst.Inserts, sst.Merges, float64(sst.ShardsScanned)/float64(sst.Queries))
	// Fold what is still buffered, so no background merge lands between an
	// Executor answer and the inline one it is compared with.
	if err := ss.Flush(); err != nil {
		log.Fatal(err)
	}
	checkExecutor(ss, dashboards)

	fmt.Println("\n5. snapshot and recover")
	var snap bytes.Buffer
	if err := ls.Snapshot(&snap); err != nil {
		log.Fatal(err)
	}
	rl, err := tsunami.RecoverLiveStore(&snap, nil, tsunami.LiveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer rl.Close()
	checkRecovered("LiveStore", ls, rl, audits)
	dir := filepath.Join(os.TempDir(), "tsunami-serving-shards")
	defer os.RemoveAll(dir)
	if err := ss.Save(dir); err != nil {
		log.Fatal(err)
	}
	rs, err := tsunami.RecoverShardedStore(dir, nil, tsunami.ShardedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	checkRecovered("ShardedStore", ss, rs, dashboards)
	fmt.Println("done")
}

// checkExecutor checks that an Executor over src answers a batch fanned
// across its pool exactly as src answers inline.
func checkExecutor(src tsunami.Index, qs []tsunami.Query) {
	ex := tsunami.NewExecutor(src, tsunami.ExecutorOptions{Workers: 4})
	defer ex.Close()
	batch := ex.ExecuteBatch(qs)
	for i, q := range qs {
		if !batch[i].Equal(src.Execute(q)) {
			log.Fatalf("batch result diverged on %s", q)
		}
	}
	fmt.Printf("  batch of %d queries matches inline execution\n", len(qs))
}

// checkRecovered checks that a recovered store answers qs and a full
// COUNT like the original. Only the aggregates must match: either store
// may publish a merge in between, which changes how many rows are scanned.
func checkRecovered(name string, orig, rec tsunami.Index, qs []tsunami.Query) {
	for _, q := range append(qs, tsunami.Count()) {
		if a, b := orig.Execute(q), rec.Execute(q); a.Count != b.Count || a.Sum != b.Sum {
			log.Fatalf("recovered %s diverges on %s: %d vs %d", name, q, b.Count, a.Count)
		}
	}
	fmt.Printf("  %s: recovered == original (%d rows, %d queries)\n", name, rec.Execute(tsunami.Count()).Count, len(qs))
}

// serve runs four writers streaming fresh trips (rows of table with later
// pickup times) into insert and two readers calling read, until the
// returned stop is called.
func serve(table *tsunami.Table, insert func([][]int64) error, read func()) (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + g)))
			for !done.Load() {
				if g >= 4 { // a reader
					read()
					continue
				}
				batch := make([][]int64, 8)
				for k := range batch {
					batch[k] = table.Row(rng.Intn(rows), nil)
					batch[k][0] += rng.Int63n(100_000)
				}
				if err := insert(batch); err != nil {
					log.Fatal(err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	return func() { done.Store(true); wg.Wait() }
}

func waitFor(what string, done func() bool) {
	for deadline := time.Now().Add(60 * time.Second); !done(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatalf("gave up waiting for %s", what)
		}
	}
}

func get(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %v (status %s)", url, err, resp.Status)
	}
	return body
}

func decode(url string, v any) {
	if err := json.Unmarshal(get(url), v); err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
}
