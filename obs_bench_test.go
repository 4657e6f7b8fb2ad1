// BenchmarkObsOverhead is the CI gate behind the observability layer's
// performance budget: the same query paths driven twice — once with nil
// metrics and no collector (the uninstrumented hot path) and once
// recording into a registry and a workload-statistics collector, both
// passive: every recording call completes on the serving goroutine —
// over one shared index. Each sub-benchmark measures the two
// sides differentially: it alternates short timed passes of the bare and
// instrumented stores (a pair completes within a few milliseconds, so a
// runner stall or frequency shift hits both sides of a pair equally),
// computes the per-pair slowdown ratio, and reports the median across
// all pairs as an `overhead-pct` metric. benchgate takes the median of
// that metric over three repeats — one commit's single readings of
// `batch` span more than the bound — and fails CI when either
// sub-benchmark's exceeds 2%:
//
//	go test -run '^$' -bench BenchmarkObsOverhead -benchtime 1x -count 3 . | \
//	    go run ./cmd/benchgate 'overhead-pct<=2'
//
// A third sub-benchmark, aa, runs the harness on the bare store against
// itself and reports its median under aa-pct, a metric the gate does not
// bound: it reads the harness's own noise on the machine at hand, so a
// failing reading can be told from noise without a scratch benchmark.
//
// The median-of-paired-ratios design is deliberate: comparing the two
// sides as separate benchmark runs (even interleaved rounds folded
// min-vs-min) lets a multi-second noisy window on a loaded runner land
// asymmetrically and fake — or mask — an overhead several times the real
// one, which repeatedly flaked a plain two-sided gate during development.
package tsunami_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	tsunami "repro"
)

// obsBench is shared across the sub-benchmarks so every pair measures
// the exact same index and workload; building it once also keeps
// repeated rounds cheap.
var obsBench struct {
	once    sync.Once
	work    []tsunami.Query
	bare    *tsunami.LiveStore
	instr   *tsunami.LiveStore
	bareEx  *tsunami.Executor
	instrEx *tsunami.Executor
}

func obsBenchSetup(b *testing.B) {
	b.Helper()
	obsBench.once.Do(func() {
		ds := tsunami.GenerateTaxi(60_000, 1)
		obsBench.work = tsunami.WorkloadFor(ds, 40, 2)
		idx := tsunami.New(ds.Store, obsBench.work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32})
		// Huge merge threshold + no sample workload: no background
		// maintenance on either store, so the delta is purely the
		// recording calls.
		obsBench.bare = tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{MergeThreshold: 1 << 30})
		// The instrumented side carries the full observability stack —
		// metrics registry plus workload-statistics collector — so the 2%
		// gate covers everything a production serving path would record.
		obsBench.instr = tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{
			MergeThreshold: 1 << 30,
			Metrics:        tsunami.NewMetrics(),
			Workload:       tsunami.NewWorkloadStats(tsunami.WorkloadOptions{}),
		})
		// The batch pair stacks executor instrumentation (queue depth and
		// wait) on top of the store's.
		obsBench.bareEx = tsunami.NewExecutor(obsBench.bare, tsunami.ExecutorOptions{Workers: 2})
		obsBench.instrEx = tsunami.NewExecutor(obsBench.instr, tsunami.ExecutorOptions{
			Workers: 2,
			Metrics: tsunami.NewMetrics(),
		})
	})
}

// obsDifferential alternates timed passes of the bare and instrumented
// sides, pairing each bare pass with the instrumented pass that ran
// immediately after it, and reports the median per-pair slowdown in
// percent as the metric unit (plus ns/op of the instrumented pass, for
// context).
func obsDifferential(b *testing.B, unit string, pairs int, barePass, instrPass func() time.Duration) {
	// Joint warm-up, unmeasured.
	barePass()
	instrPass()
	ratios := make([]float64, 0, pairs)
	var instrTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratios = ratios[:0]
		instrTotal = 0
		for t := 0; t < pairs; t++ {
			bn := barePass()
			in := instrPass()
			instrTotal += in
			ratios = append(ratios, float64(in)/float64(bn))
		}
	}
	b.StopTimer()
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	b.ReportMetric((median-1)*100, unit)
	b.ReportMetric(float64(instrTotal.Nanoseconds())/float64(pairs), "instr-pass-ns")
}

func BenchmarkObsOverhead(b *testing.B) {
	obsBenchSetup(b)
	// Short per-pass slices keep a bare+instrumented pair within a few
	// milliseconds of each other; 96 pairs give the median plenty to
	// discard stalled outliers.
	work := obsBench.work[:32]
	pass := func(ls *tsunami.LiveStore) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			for _, q := range work {
				ls.Execute(q)
			}
			return time.Since(start)
		}
	}
	batchPass := func(ex *tsunami.Executor) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			ex.ExecuteBatch(work)
			return time.Since(start)
		}
	}
	b.Run("exec", func(b *testing.B) {
		obsDifferential(b, "overhead-pct", 96, pass(obsBench.bare), pass(obsBench.instr))
	})
	b.Run("batch", func(b *testing.B) {
		obsDifferential(b, "overhead-pct", 96, batchPass(obsBench.bareEx), batchPass(obsBench.instrEx))
	})
	b.Run("aa", func(b *testing.B) {
		obsDifferential(b, "aa-pct", 96, pass(obsBench.bare), pass(obsBench.bare))
	})
}
