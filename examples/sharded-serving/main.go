// Sharded serving: partitioned multi-shard mode end to end. A taxi table
// is split across 4 LiveStore shards by a learned range partitioning of
// pickup_time, so recency dashboards touch one or two shards instead of
// the whole table. Four writer goroutines stream fresh trips in parallel —
// each shard has its own copy-on-write ingest section, so writers to
// different shards never contend — while readers scatter-gather through
// an Executor: the router prunes shards whose key range cannot intersect
// the query, the survivors run on the worker pool, and the partial
// COUNT/SUM aggregates merge (AVG merges exactly as a sum+count pair).
// Each shard merges its own buffers in the background. Finally the store
// writes a consistent multi-shard snapshot (one manifest + per-shard
// files) and recovers from it.
//
//	go run ./examples/sharded-serving
package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	tsunami "repro"
)

func main() {
	const rows = 80_000
	ds := tsunami.GenerateTaxi(rows, 1)

	// Dashboards the shards optimize for: recent trips by distance.
	dashboards := tsunami.GenerateWorkload(ds.Store, []tsunami.TypeSpec{
		{Name: "recent-by-distance", Dims: []tsunami.DimSpec{
			{Dim: 0, Sel: 0.1, Jitter: 0.2, Skew: tsunami.SkewRecent}, // pickup_time
			{Dim: 2, Sel: 0.15, Jitter: 0.2},                          // distance
		}},
	}, 120, 2)

	fmt.Printf("building 4 Tsunami shards over %d taxi rows (learned range cuts on pickup_time)...\n", rows)
	var merges atomic.Uint64
	ss, err := tsunami.NewShardedStore(ds.Store, dashboards,
		tsunami.Options{OptimizerIters: 2, MaxOptQueries: 48},
		tsunami.ShardedOptions{
			Shards:  4,
			Learned: true, // range partitioning on dim 0
			Live:    tsunami.LiveOptions{MergeThreshold: 1000},
			OnEvent: func(ev tsunami.ShardedEvent) {
				switch ev.Kind {
				case tsunami.LiveEventMerge:
					merges.Add(1)
					fmt.Printf("  [shard %d] merged %d rows in %.2fs (epoch %d)\n",
						ev.Shard, ev.MergedRows, ev.Seconds, ev.Epoch)
				case tsunami.LiveEventError:
					fmt.Printf("  [shard %d] error: %v\n", ev.Shard, ev.Err)
				}
			},
		})
	if err != nil {
		panic(err)
	}
	defer ss.Close()

	// Phase 1 — routed reads: a narrow recency dashboard only visits the
	// shards owning the top of the pickup_time range.
	lo, hi := ds.Store.MinMax(0)
	recent := tsunami.Count(tsunami.Filter{Dim: 0, Lo: hi - (hi-lo)/10, Hi: hi})
	res := ss.Execute(recent)
	st := ss.Stats()
	fmt.Printf("\nphase 1: routed read — last-10%%-of-time dashboard matched %d trips, fan-out %.0f of %d shards\n",
		res.Count, float64(st.ShardsScanned)/float64(st.Queries), st.Shards)

	// Phase 2 — parallel ingest + scatter-gather serving: 4 writers
	// stream fresh trips whose timestamps land across the range cuts, and
	// 4 readers serve dashboards through an Executor with intra-query
	// scatter-gather enabled.
	fmt.Println("\nphase 2: 4 writers streaming, readers scatter-gathering through the Executor")
	ex := tsunami.NewExecutor(ss, tsunami.ExecutorOptions{Workers: 4, IntraQuery: true})
	defer ex.Close()

	var stop atomic.Bool
	var served atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + w)))
			buf := make([]int64, ds.Store.NumDims())
			batch := make([][]int64, 8)
			for !stop.Load() {
				for k := range batch {
					row := append([]int64(nil), ds.Store.Row(rng.Intn(rows), buf)...)
					row[0] += rng.Int63n(100_000) // fresh-ish trips across shards
					batch[k] = row
				}
				if err := ss.InsertBatch(batch); err != nil {
					panic(err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := r; !stop.Load(); k++ {
				ex.Execute(dashboards[k%len(dashboards)])
				served.Add(1)
			}
		}()
	}

	deadline := time.Now().Add(30 * time.Second)
	for merges.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	st = ss.Stats()
	fmt.Printf("  served %d queries; %d inserts across shards; %d merges; mean fan-out %.2f (%d shard scans pruned)\n",
		served.Load(), st.Inserts, st.Merges, float64(st.ShardsScanned)/float64(st.Queries), st.ShardsPruned)
	avg := ss.Execute(tsunami.Sum(3, tsunami.Filter{Dim: 0, Lo: hi - (hi-lo)/10, Hi: tsunami.NoHi}))
	fmt.Printf("  AVG(fare) over recent trips: %.1f (merged exactly from per-shard sum+count pairs)\n", avg.Avg())

	// Phase 3 — consistent multi-shard snapshot and recovery.
	dir := filepath.Join(os.TempDir(), "sharded-serving-snap")
	defer os.RemoveAll(dir)
	if err := ss.Save(dir); err != nil {
		panic(err)
	}
	recovered, err := tsunami.RecoverShardedStore(dir, nil, tsunami.ShardedOptions{})
	if err != nil {
		panic(err)
	}
	defer recovered.Close()
	a, b := ss.Execute(tsunami.Count()), recovered.Execute(tsunami.Count())
	fmt.Printf("\nphase 3: save -> recover: %d vs %d total rows (buffered rows carried: %d)\n",
		a.Count, b.Count, recovered.Stats().BufferedRows)
	if a.Count != b.Count {
		panic("recovered store diverges")
	}
	fmt.Println("done")
}
