// Acceptance tests for online shard rebalancing, run against the public
// API. The harness is oracle-backed and randomized: a seeded random
// schema and a skewed workload drive concurrent ingest, queries, and
// forced rebalances (run with -race); at every quiesce point the
// ShardedStore's aggregates must equal a naive full scan over every row
// the writers ever acknowledged — so no row is lost or duplicated across
// migrations. Failures reproduce from the printed seed.
package tsunami_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	tsunami "repro"
	"repro/internal/testutil"
)

// TestRebalanceRandomizedOracle is the ISSUE 4 acceptance property.
func TestRebalanceRandomizedOracle(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomizedRebalance(t, seed)
		})
	}
}

func runRandomizedRebalance(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	// Seeded random schema: dim 0 is the "time" dimension rebalancing
	// cuts on; the rest mix correlated, low-cardinality, and uniform
	// columns.
	dims := 3 + rng.Intn(3)
	n := 4000 + rng.Intn(3000)
	const timeSpan = 500_000
	cols := make([][]int64, dims)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		t0 := rng.Int63n(timeSpan)
		cols[0][i] = t0
		for j := 1; j < dims; j++ {
			switch j % 3 {
			case 1:
				cols[j][i] = t0/2 + rng.Int63n(1000) // correlated with time
			case 2:
				cols[j][i] = rng.Int63n(8) // low cardinality
			default:
				cols[j][i] = rng.Int63n(100_000) // uniform
			}
		}
	}
	table, err := tsunami.NewTable(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := testutil.RandomQueries(table, 40, seed+1)

	shards := 3 + rng.Intn(2)
	ss, err := tsunami.NewShardedStore(table, work,
		tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16},
		tsunami.ShardedOptions{
			Shards:  shards,
			Learned: true,
			Live:    tsunami.LiveOptions{MergeThreshold: 400},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	oracle := testutil.NewOracle(table)

	// Readers hammer the store for the whole run — through migrations,
	// merges, and flushes. Their answers race against ingest so they are
	// not compared here; the quiesce points below do the exact checks,
	// and the -race run proves the concurrent paths are data-race free.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := r; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				ss.Execute(work[k%len(work)])
			}
		}()
	}
	defer func() {
		close(done)
		readers.Wait()
	}()

	// Skewed ingest: every fresh row's time value marches past the
	// current maximum, so all of them land in the last time shard — the
	// drift scenario rebalancing exists for.
	var clock atomic.Int64
	clock.Store(timeSpan)
	const (
		phases       = 2
		writersPP    = 3
		batchesPerWr = 25
		rowsPerBatch = 16
	)
	for phase := 0; phase < phases; phase++ {
		var writers sync.WaitGroup
		for w := 0; w < writersPP; w++ {
			wrng := rand.New(rand.NewSource(seed + int64(phase*writersPP+w+10)))
			writers.Add(1)
			go func() {
				defer writers.Done()
				for b := 0; b < batchesPerWr; b++ {
					batch := make([][]int64, rowsPerBatch)
					for k := range batch {
						row := make([]int64, dims)
						t0 := clock.Add(3 + wrng.Int63n(5))
						row[0] = t0
						for j := 1; j < dims; j++ {
							switch j % 3 {
							case 1:
								row[j] = t0/2 + wrng.Int63n(1000)
							case 2:
								row[j] = wrng.Int63n(8)
							default:
								row[j] = wrng.Int63n(100_000)
							}
						}
						batch[k] = row
					}
					if err := ss.InsertBatch(batch); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					oracle.Add(batch...)
				}
			}()
		}
		// Force a rebalance while the writers are streaming: migrations
		// race live ingest and live readers.
		if err := ss.Rebalance(); err != nil {
			t.Fatalf("phase %d rebalance: %v", phase, err)
		}
		writers.Wait()

		// Quiesce point: fold everything, then every aggregate must equal
		// the oracle (Check appends COUNT(*) and per-dimension SUMs, so a
		// lost or duplicated row cannot hide).
		if err := ss.Flush(); err != nil {
			t.Fatal(err)
		}
		if buffered := ss.Stats().BufferedRows; buffered != 0 {
			t.Fatalf("phase %d: %d rows buffered after Flush", phase, buffered)
		}
		probe := testutil.RandomQueries(oracle.Snapshot(), 60, seed+int64(phase)+100)
		oracle.Check(t, ss, probe)
	}

	// A final rebalance on the quiesced store, checked the same way: the
	// run forces at least phases+1 rebalances total.
	if err := ss.Rebalance(); err != nil {
		t.Fatal(err)
	}
	oracle.Check(t, ss, testutil.RandomQueries(oracle.Snapshot(), 60, seed+200))

	stats := ss.Stats()
	if want := uint64(phases * writersPP * batchesPerWr * rowsPerBatch); stats.Inserts != want {
		t.Errorf("store counted %d inserts, want %d", stats.Inserts, want)
	}
	if stats.RowsMigrated == 0 || stats.Generation < 2 {
		t.Errorf("rebalancing never migrated: %d rows moved, generation %d",
			stats.RowsMigrated, stats.Generation)
	}
	if skew, _ := ss.Skew(); skew >= 2 {
		t.Errorf("final skew %.2f, want < 2 after rebalancing", skew)
	}
	t.Logf("seed %d: dims=%d shards=%d rebalances=%d rowsMigrated=%d generation=%d",
		seed, dims, shards, stats.Rebalances, stats.RowsMigrated, stats.Generation)
}
