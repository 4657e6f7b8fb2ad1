// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§6). Each BenchmarkTabX/BenchmarkFigX runs the corresponding
// experiment harness at smoke-test scale and prints the same rows/series
// the paper reports (the first iteration prints; repeats are silent).
//
// Full-scale runs:  go run ./cmd/tsunami-bench -experiment fig7
// These benches:    go test -bench=. -benchmem
package tsunami_test

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tsunami "repro"
	"repro/internal/bench"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	o := bench.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		w := io.Writer(io.Discard)
		if i == 0 {
			w = os.Stdout
		}
		if err := bench.Run(w, id, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab3Datasets regenerates Tab 3 (dataset/query characteristics).
func BenchmarkTab3Datasets(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkTab4IndexStats regenerates Tab 4 (index statistics after
// optimization).
func BenchmarkTab4IndexStats(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkFig7Throughput regenerates Fig 7 (query performance across
// datasets and indexes).
func BenchmarkFig7Throughput(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8IndexSize regenerates Fig 8 (index sizes).
func BenchmarkFig8IndexSize(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9aWorkloadShift regenerates Fig 9a (adaptability to workload
// shift).
func BenchmarkFig9aWorkloadShift(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFig9bCreation regenerates Fig 9b (index creation time split).
func BenchmarkFig9bCreation(b *testing.B) { runExperiment(b, "fig9b") }

// BenchmarkFig10Dimensions regenerates Fig 10 (dimensionality sweep).
func BenchmarkFig10Dimensions(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11aDataSize regenerates Fig 11a (dataset size sweep).
func BenchmarkFig11aDataSize(b *testing.B) { runExperiment(b, "fig11a") }

// BenchmarkFig11bSelectivity regenerates Fig 11b (selectivity sweep).
func BenchmarkFig11bSelectivity(b *testing.B) { runExperiment(b, "fig11b") }

// BenchmarkFig12aComponents regenerates Fig 12a (component drill-down).
func BenchmarkFig12aComponents(b *testing.B) { runExperiment(b, "fig12a") }

// BenchmarkFig12bOptimizers regenerates Fig 12b (optimizer comparison and
// cost-model error).
func BenchmarkFig12bOptimizers(b *testing.B) { runExperiment(b, "fig12b") }

// BenchmarkAblations measures the design-choice ablations DESIGN.md calls
// out (sort-dim refinement, FMs, CCDFs, merge epsilon, outlier buffers).
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkExecutorWorkers reports queries/sec of the Fig 7-style query mix
// through the Executor worker pool at 1, 4, and NumCPU workers.
func BenchmarkExecutorWorkers(b *testing.B) {
	ds, work := microSetup(b)
	idx := tsunami.New(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32})
	counts := []int{1, 4, runtime.NumCPU()}
	if runtime.NumCPU() == 1 || runtime.NumCPU() == 4 {
		counts = counts[:2] // avoid duplicate sub-benchmark names
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: workers})
			defer ex.Close()
			ex.ExecuteBatch(work) // warm-up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex.ExecuteBatch(work)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*len(work))/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkServeHit is the cost of a result-cache hit served the way a
// client is served: Executor.Serve with admission over a caching
// LiveStore, the store and the Executor recording into one registry and
// the store into a workload collector. Each of 1 or 2 client goroutines
// serves b.N hits, so ns/op is one hit's latency as a client sees it;
// where two clients take longer per hit than one, they write something
// they share.
//
//	go test -run '^$' -bench BenchmarkServeHit -count 3 .
func BenchmarkServeHit(b *testing.B) {
	ds, idx := smallTaxi()
	reg := tsunami.NewMetrics()
	ls := tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{
		CacheEntries: 1024,
		Metrics:      reg,
		Workload:     tsunami.NewWorkloadStats(tsunami.WorkloadOptions{}),
	})
	defer ls.Close()
	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{
		Workers:   2,
		Metrics:   reg,
		Admission: tsunami.AdmissionConfig{MaxInFlight: 64, MaxRows: uint64(ds.Store.NumRows())},
	})
	defer ex.Close()
	lo, _ := ds.Store.MinMax(0)
	hot := make([]tsunami.Query, 16)
	for i := range hot {
		hot[i] = tsunami.Count(tsunami.Filter{Dim: 0, Lo: lo + int64(i), Hi: lo + 1000})
		ex.Serve(hot[i], tsunami.PriorityNormal) // the miss that caches it
	}
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			hits := ls.CacheStats().Hits
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, err := ex.Serve(hot[(i+c)%len(hot)], tsunami.PriorityNormal); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if got := ls.CacheStats().Hits - hits; got != uint64(clients*b.N) {
				b.Fatalf("%d hits, want %d", got, clients*b.N)
			}
		})
	}
}

// BenchmarkLiveMixed measures the mixed read/write serving mode: parallel
// readers execute against a LiveStore while background writers stream
// inserts fast enough to force repeated copy-on-write merges. Reads
// resolve the current epoch through an atomic pointer and never take a
// lock, so read throughput persists through maintenance — the merges/sec
// metric confirms maintenance actually overlapped the measured reads
// (compare reads/sec here against BenchmarkQueryTsunami's sequential
// read-only latency: there is no stop-the-world window to amortize).
func BenchmarkLiveMixed(b *testing.B) {
	ds, work := microSetup(b)
	idx := tsunami.New(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32})
	ls := tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{MergeThreshold: 512})
	defer ls.Close()

	// Background writers: perturbed copies of existing rows. Writers are
	// paced (a short sleep per small batch) so the table grows linearly
	// with wall time instead of running away — the point is steady
	// maintenance pressure under the readers, not maximum ingest.
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			buf := make([]int64, ds.Store.NumDims())
			rows := make([][]int64, 8)
			for i := 0; ; i += len(rows) {
				select {
				case <-stop:
					return
				default:
				}
				for k := range rows {
					row := append([]int64(nil), ds.Store.Row((w*7919+i+k)%ds.Store.NumRows(), buf)...)
					row[0]++
					rows[k] = row
				}
				if err := ls.InsertBatch(rows); err != nil {
					b.Error(err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	b.ReportAllocs()
	before := ls.Stats() // activity during setup must not count
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ls.Execute(work[i%len(work)])
			i++
		}
	})
	b.StopTimer()
	after := ls.Stats()
	close(stop)
	writerWG.Wait()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.N)/secs, "reads/sec")
	b.ReportMetric(float64(after.Inserts-before.Inserts)/secs, "writes/sec")
	b.ReportMetric(float64(after.Merges-before.Merges)/secs, "merges/sec")
}

// BenchmarkShardedIngest measures ingest throughput against shard count:
// concurrent writers stream row batches into a ShardedStore at 1, 2, and
// 4 shards (plus NumCPU when distinct). Each shard has its own serialized
// copy-on-write ingest section, so on a multi-core runner rows/sec grows
// with shards — the acceptance target is ≥2x at 4 shards vs 1. Merges are
// disabled so the numbers isolate ingest, not maintenance.
//
// The last shard count also reports best-multi-shard-x: the best
// multi-shard rows/sec over the shards=1 rows/sec of the same run, the
// figure CI holds at >=0.85 (sharding must not cost ingest throughput;
// the inverse-scaling bug it guards against read 0.67). It is reported
// only with GOMAXPROCS > 1: writers timesharing one CPU cannot show
// scaling, and the ratio there is scheduler noise.
func BenchmarkShardedIngest(b *testing.B) {
	ds := tsunami.GenerateTaxi(30_000, 1)
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	// rate[i] is counts[i]'s rows/sec; go test calls a sub-benchmark
	// with growing b.N, and the last call's reading is the one that stays.
	rate := make([]float64, len(counts))
	for i, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ss, err := tsunami.NewShardedStore(ds.Store, nil,
				tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16},
				tsunami.ShardedOptions{
					Shards:  shards,
					Learned: true,
					Live:    tsunami.LiveOptions{MergeThreshold: 1 << 30},
				})
			if err != nil {
				b.Fatal(err)
			}
			defer ss.Close()
			const batchSize = 64
			// At least as many writer goroutines as shards, so shard
			// parallelism is reachable even when GOMAXPROCS is low.
			if runtime.GOMAXPROCS(0) < shards {
				b.SetParallelism((shards + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wr atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				w := int(wr.Add(1))
				buf := make([]int64, ds.Store.NumDims())
				batch := make([][]int64, batchSize)
				for k := range batch {
					batch[k] = make([]int64, ds.Store.NumDims())
				}
				for i := 0; pb.Next(); i++ {
					for k := range batch {
						copy(batch[k], ds.Store.Row((w*7919+i*batchSize+k)%ds.Store.NumRows(), buf))
						batch[k][0] += int64(1 + w)
					}
					if err := ss.InsertBatch(batch); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			rate[i] = float64(b.N*batchSize) / b.Elapsed().Seconds()
			b.ReportMetric(rate[i], "rows/sec")
			if i == len(counts)-1 && rate[0] > 0 && runtime.GOMAXPROCS(0) > 1 {
				b.ReportMetric(slices.Max(rate[1:])/rate[0], "best-multi-shard-x")
			}
		})
	}
}

// BenchmarkShardedMixed measures the sharded serving mode under a mixed
// workload: parallel readers scatter-gather through the router while
// background writers stream batches that keep every shard's own merge
// loop busy. Compare reads/sec against BenchmarkLiveMixed: routing adds a
// partitioner lookup per query but pruning skips whole shards, and
// maintenance cost is split across shards.
func BenchmarkShardedMixed(b *testing.B) {
	ds, work := microSetup(b)
	ss, err := tsunami.NewShardedStore(ds.Store, work,
		tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32},
		tsunami.ShardedOptions{
			Shards:  4,
			Learned: true,
			Live:    tsunami.LiveOptions{MergeThreshold: 512},
		})
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()

	// Background writers: perturbed copies of existing rows, paced so the
	// table grows linearly with wall time (steady maintenance pressure
	// under the readers, not maximum ingest).
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			buf := make([]int64, ds.Store.NumDims())
			rows := make([][]int64, 8)
			for i := 0; ; i += len(rows) {
				select {
				case <-stop:
					return
				default:
				}
				for k := range rows {
					row := append([]int64(nil), ds.Store.Row((w*7919+i+k)%ds.Store.NumRows(), buf)...)
					row[0]++
					rows[k] = row
				}
				if err := ss.InsertBatch(rows); err != nil {
					b.Error(err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	b.ReportAllocs()
	before := ss.Stats() // activity during setup must not count
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ss.Execute(work[i%len(work)])
			i++
		}
	})
	b.StopTimer()
	after := ss.Stats()
	close(stop)
	writerWG.Wait()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.N)/secs, "reads/sec")
	b.ReportMetric(float64(after.Inserts-before.Inserts)/secs, "writes/sec")
	b.ReportMetric(float64(after.Merges-before.Merges)/secs, "merges/sec")
	if q := after.Queries - before.Queries; q > 0 {
		b.ReportMetric(float64(after.ShardsScanned-before.ShardsScanned)/float64(q), "shards/query")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks on the public API: per-query latency of each index on a
// fixed dataset, reported with allocations.

func microSetup(b *testing.B) (*tsunami.Dataset, []tsunami.Query) {
	b.Helper()
	ds := tsunami.GenerateTaxi(60_000, 1)
	work := tsunami.WorkloadFor(ds, 40, 2)
	return ds, work
}

func benchQueries(b *testing.B, idx tsunami.Index, work []tsunami.Query) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Execute(work[i%len(work)])
	}
}

func BenchmarkQueryTsunami(b *testing.B) {
	ds, work := microSetup(b)
	idx := tsunami.New(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32})
	benchQueries(b, idx, work)
}

func BenchmarkQueryFlood(b *testing.B) {
	ds, work := microSetup(b)
	idx := tsunami.NewFlood(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32})
	benchQueries(b, idx, work)
}

func BenchmarkQueryKDTree(b *testing.B) {
	ds, work := microSetup(b)
	benchQueries(b, tsunami.NewKDTree(ds.Store, work, 2048), work)
}

func BenchmarkQueryZOrder(b *testing.B) {
	ds, work := microSetup(b)
	benchQueries(b, tsunami.NewZOrder(ds.Store, 2048), work)
}

func BenchmarkQueryHyperoctree(b *testing.B) {
	ds, work := microSetup(b)
	benchQueries(b, tsunami.NewHyperoctree(ds.Store, 2048), work)
}

func BenchmarkQuerySingleDim(b *testing.B) {
	ds, work := microSetup(b)
	benchQueries(b, tsunami.NewSingleDim(ds.Store, work, -1), work)
}

func BenchmarkQueryFullScan(b *testing.B) {
	ds, work := microSetup(b)
	benchQueries(b, tsunami.NewFullScan(ds.Store), work)
}

// BenchmarkBuildTsunami measures end-to-end optimize+build time.
func BenchmarkBuildTsunami(b *testing.B) {
	ds, work := microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsunami.New(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32})
	}
}
