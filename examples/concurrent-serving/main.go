// Concurrent serving: one shared Tsunami index, no clones, queried by a
// worker-pool Executor — batches fanned across workers, plus intra-query
// parallelism that splits a single query's Grid Tree regions across the
// pool.
//
//	go run ./examples/concurrent-serving
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	tsunami "repro"
)

func main() {
	// Build one index; it is immutable on the read path, so every worker
	// below executes against this same value.
	ds := tsunami.GenerateTaxi(300_000, 1)
	work := tsunami.WorkloadFor(ds, 100, 2)
	fmt.Printf("building Tsunami over %d rows...\n", ds.Rows())
	idx := tsunami.New(ds.Store, work, tsunami.Options{})

	// Sanity: batch answers must match sequential execution.
	ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: runtime.NumCPU()})
	defer ex.Close()
	batch := ex.ExecuteBatch(work[:20])
	for i, q := range work[:20] {
		if !batch[i].Equal(idx.Execute(q)) {
			log.Fatalf("batch result diverged on %s", q)
		}
	}
	fmt.Printf("batch of %d queries matches sequential execution\n", len(batch))

	// Throughput at increasing pool sizes. On a multi-core machine the
	// queries/sec column scales with workers until memory bandwidth
	// saturates.
	fmt.Printf("\n%-8s  %s\n", "workers", "throughput (q/s)")
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		pool := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: workers})
		pool.ExecuteBatch(work) // warm-up
		start := time.Now()
		batches := 0
		for time.Since(start) < 300*time.Millisecond {
			pool.ExecuteBatch(work)
			batches++
		}
		qps := float64(batches*len(work)) / time.Since(start).Seconds()
		pool.Close()
		fmt.Printf("%-8d  %.0f\n", workers, qps)
	}

	// Intra-query parallelism: a single broad query routed to many regions
	// is split across the pool and the partial results merged.
	intra := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{
		Workers:    runtime.NumCPU(),
		IntraQuery: true,
	})
	defer intra.Close()
	broad := work[0]
	if !intra.Execute(broad).Equal(idx.Execute(broad)) {
		log.Fatalf("intra-query result diverged on %s", broad)
	}
	fmt.Printf("\nintra-query execution over %d regions matches sequential\n",
		idx.RegionsVisited(broad))
}
