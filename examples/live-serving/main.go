// Live serving: the epoch-based read-write mode end to end. A taxi table
// serves dashboard queries from four reader goroutines while four writer
// goroutines stream fresh trips in. Reads never take a lock: each resolves
// the current immutable index through an atomic epoch handle. Inserts
// publish copy-on-write versions; a background maintainer folds them into
// fresh clustered copies once enough accumulate. Mid-run the query mix
// shifts to a pattern the index was never optimized for — the shift
// detector notices and re-optimizes the drifted regions, also in the
// background, also published by one atomic swap. Finally the store
// snapshots itself (including not-yet-merged rows) and recovers from the
// snapshot.
//
//	go run ./examples/live-serving
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

	// Dashboards the index is optimized for: recent trips by distance.
	dashboards := tsunami.GenerateWorkload(ds.Store, []tsunami.TypeSpec{
		{Name: "recent-by-distance", Dims: []tsunami.DimSpec{
			{Dim: 0, Sel: 0.1, Jitter: 0.2, Skew: tsunami.SkewRecent}, // pickup_time
			{Dim: 2, Sel: 0.15, Jitter: 0.2},                          // distance
		}},
	}, 120, 2)

	fmt.Printf("building Tsunami over %d taxi rows...\n", rows)
	idx := tsunami.New(ds.Store, dashboards, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 48})

	var mergesSeen, reoptsSeen atomic.Uint64
	ls := tsunami.NewLiveStore(idx, dashboards, tsunami.LiveOptions{
		MergeThreshold: 1000,
		Shift:          tsunami.ShiftConfig{WindowSize: 96, MinObserved: 48},
		OnEvent: func(ev tsunami.LiveEvent) {
			switch ev.Kind {
			case tsunami.LiveEventMerge:
				mergesSeen.Add(1)
				fmt.Printf("  [maintenance] merged %d rows into a fresh clustered copy in %.2fs (epoch %d)\n",
					ev.MergedRows, ev.Seconds, ev.Epoch)
			case tsunami.LiveEventReoptimize:
				reoptsSeen.Add(1)
				fmt.Printf("  [maintenance] workload shift: re-optimized %d regions in %.2fs (epoch %d)\n",
					ev.RegionsRebuilt, ev.Seconds, ev.Epoch)
			case tsunami.LiveEventError:
				fmt.Printf("  [maintenance] error: %v\n", ev.Err)
			}
		},
	})
	defer ls.Close()

	// Phase 1 — steady state: 4 writers stream trips, 4 readers serve
	// dashboards, and background merges keep the delta buffers small.
	fmt.Println("\nphase 1: 4 writers streaming trips, 4 readers serving dashboards")
	var stop atomic.Bool
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
				// Fresh trips: existing rows with bumped timestamps.
				for k := range batch {
					row := append([]int64(nil), ds.Store.Row(rng.Intn(rows), buf)...)
					row[0] += 1000
					batch[k] = row
				}
				if err := ls.InsertBatch(batch); err != nil {
					panic(err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	var served atomic.Uint64
	shifted := tsunami.GenerateWorkload(ds.Store, []tsunami.TypeSpec{
		{Name: "audit-by-fare", Dims: []tsunami.DimSpec{
			{Dim: 3, Sel: 0.1, Jitter: 0.2}, // fare — never in the optimized workload
			{Dim: 6, Sel: 0.3, Jitter: 0.2}, // passengers
		}},
	}, 120, 3)
	var phase atomic.Int32 // 0: dashboards, 1: shifted audit queries
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := r; !stop.Load(); k++ {
				if phase.Load() == 0 {
					ls.Execute(dashboards[k%len(dashboards)])
				} else {
					ls.Execute(shifted[k%len(shifted)])
				}
				served.Add(1)
			}
		}()
	}

	waitFor := func(what string, done func() bool) {
		deadline := time.Now().Add(30 * time.Second)
		for !done() && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if !done() {
			fmt.Printf("  (gave up waiting for %s)\n", what)
		}
	}
	waitFor("a background merge", func() bool { return mergesSeen.Load() >= 1 })
	st := ls.Stats()
	fmt.Printf("  served %d queries so far; epoch %d, %d clustered + %d buffered rows\n",
		served.Load(), st.Epoch, st.ClusteredRows, st.BufferedRows)

	// Phase 2 — the workload shifts to fare/passenger audits the index was
	// never optimized for; the detector fires and the drifted regions are
	// re-optimized behind the readers.
	fmt.Println("\nphase 2: query mix shifts to fare/passenger audits")
	phase.Store(1)
	waitFor("shift-triggered re-optimization", func() bool { return reoptsSeen.Load() >= 1 })
	stop.Store(true)
	wg.Wait()

	st = ls.Stats()
	fmt.Printf("  final: epoch %d, %d queries, %d inserts, %d merges, %d reoptimizations\n",
		st.Epoch, st.Queries, st.Inserts, st.Merges, st.Reoptimizations)

	// Phase 3 — snapshot (buffered rows included) and recover.
	path := filepath.Join(os.TempDir(), "live-serving.idx")
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := ls.Snapshot(f); err != nil {
		panic(err)
	}
	f.Close()
	defer os.Remove(path)

	f, err = os.Open(path)
	if err != nil {
		panic(err)
	}
	recovered, err := tsunami.RecoverLiveStore(f, nil, tsunami.LiveOptions{})
	f.Close()
	if err != nil {
		panic(err)
	}
	defer recovered.Close()

	probe := dashboards[0]
	a, b := ls.Execute(probe), recovered.Execute(probe)
	fmt.Printf("\nphase 3: snapshot -> recover: count %d vs %d, buffered rows carried: %d\n",
		a.Count, b.Count, recovered.Stats().BufferedRows)
	if a.Count != b.Count {
		panic("recovered store diverges")
	}
	fmt.Println("done")
}
