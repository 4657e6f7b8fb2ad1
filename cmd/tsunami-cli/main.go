// Command tsunami-cli is an interactive shell over a Tsunami index: load or
// generate a dataset, run COUNT/SUM filter queries, EXPLAIN how the index
// answers them, stream inserts, and save/load the index.
//
//	tsunami-cli -dataset taxi -rows 100000
//	> count passengers=1 30<=pickup_zone<=60
//	> explain distance<=100 pickup_time>=900000
//	> sum fare distance<=100
//	> count distance<=100 by passengers
//	> insert 1000,1030,250,900,100,1000,2,17,42
//	> merge
//	> save /tmp/taxi.idx
//	> stats
//	> quit
//
// The shell serves through a LiveStore, so a built index is never written:
// inserts are published copy-on-write and merge in the background once
// -merge-threshold rows are buffered (`merge` folds them now), a shift
// detector watches the query stream and re-optimizes drifted regions,
// maintenance events are printed as they complete, and
// -snapshot/-snapshot-every persist crash-recovery snapshots (including
// buffered rows) while serving. -load reopens a file written by `save` or
// -snapshot.
//
//	tsunami-cli -dataset taxi -merge-threshold 10000 \
//	    -snapshot /tmp/taxi.idx -snapshot-every 30s
//
// With -shards N the shell serves through a ShardedStore: rows are
// partitioned across N independent LiveStore shards (-partition range
// learns equi-depth cuts on -partition-dim; -partition hash spreads rows
// by a mixed hash), reads are routed to the shards the partitioner cannot
// prune, ingest to different shards runs in parallel, and
// -snapshot-dir/-snapshot-every maintain a recoverable snapshot
// directory. `save <dir>` writes a consistent multi-shard snapshot;
// -load <dir> recovers one — including directories left by a crash
// mid-rebalance, which are reconciled on recovery.
//
// With -rebalance-every the store also watches shard sizes and, when the
// largest shard exceeds -rebalance-skew times the mean, re-learns the
// range cuts and migrates rows between neighboring shards online —
// readers stay lock-free and exact throughout. `rebalance` triggers one
// manually; `stats` shows the skew, generation, and rows migrated.
//
//	tsunami-cli -dataset taxi -shards 4 -partition range \
//	    -rebalance-every 30s -rebalance-skew 2 \
//	    -snapshot-dir /tmp/taxi-shards -snapshot-every 30s
//
// Both modes record into one metrics registry: `stats` prints a unified
// serving summary (queries, latency quantiles, scan volume, ingest,
// maintenance) from it, `trace <query>` runs a query with explain-analyze
// stage timings, and -metrics ADDR serves the registry over HTTP —
// Prometheus text at /metrics, JSON quantiles at /statsz, and
// net/http/pprof under /debug/pprof/:
//
//	tsunami-cli -dataset taxi -metrics 127.0.0.1:9100
//	> trace count passengers=1
//	> stats
//
// In both modes SIGINT/SIGTERM shut down gracefully: ingest stops,
// maintenance quiesces, and a final snapshot is written before exit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	tsunami "repro"
	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/qparse"
	"repro/internal/query"
	"repro/internal/sharded"
	"repro/internal/workload"
	"repro/internal/wstats"
)

// store is what the two serving layers, live.Store and sharded.Store,
// share: the shell queries, ingests, merges and closes through it.
type store interface {
	tsunami.Index
	ExecuteWith(q query.Query, x index.Exec) colstore.ScanResult
	Insert(row []int64) error
	Flush() error
	Close() error
}

// session is the shell's target: a LiveStore, or a ShardedStore
// (-shards N).
type session struct {
	store store          // live or shard, whichever is set
	live  *live.Store    // without -shards
	shard *sharded.Store // with -shards N

	// ex fronts the store with the Executor's admission control: shell
	// queries go through Serve, so -max-inflight sheds and
	// -max-rows/-max-bytes reject over-budget queries at plan time.
	ex *tsunami.Executor

	// metrics is the registry both stores instrument themselves into, so
	// `stats` reads one schema regardless of mode.
	metrics *obs.Registry

	// wl is the workload-statistics collector behind `topq`, `slowlog`,
	// the stats workload lines, and /workloadz; the stores record into it.
	wl *wstats.Collector

	// lastSnap/lastStats anchor the rates (q/s, Mrows/s, GB/s) the
	// `stats` command prints for the interval since its previous run.
	lastSnap  obs.Snapshot
	lastStats time.Time

	// shutdown quiesces the store (final snapshots included); it is safe
	// to call more than once.
	shutdown func()
}

func (s *session) index() *core.Tsunami {
	if s.shard != nil {
		return s.shard.Shard(0).Index() // representative shard for the grid-tree stats
	}
	return s.live.Index()
}

func (s *session) buffered() int {
	if s.shard != nil {
		return s.shard.Stats().BufferedRows
	}
	return s.index().NumBuffered()
}

func main() {
	var (
		dataset   = flag.String("dataset", "taxi", "dataset: tpch, taxi, perfmon, stocks, uniform, correlated")
		rows      = flag.Int("rows", 100_000, "rows to generate")
		dims      = flag.Int("dims", 8, "dimensions (synthetic datasets only)")
		seed      = flag.Int64("seed", 1, "generator seed")
		load      = flag.String("load", "", "load a saved index (file) or sharded snapshot (directory) instead of building")
		shards    = flag.Int("shards", 0, "serve through a ShardedStore with this many shards (0 = one LiveStore)")
		partition = flag.String("partition", "range", "sharded partitioner: range (learned cuts) or hash")
		partDim   = flag.Int("partition-dim", 0, "dimension the sharded partitioner cuts or hashes on")
		mergeAt   = flag.Int("merge-threshold", 4096, "buffered rows triggering a background merge")
		snapPath  = flag.String("snapshot", "", "periodic crash-recovery snapshot file (without -shards)")
		snapDir   = flag.String("snapshot-dir", "", "periodic crash-recovery snapshot directory (-shards)")
		snapEvery = flag.Duration("snapshot-every", 30*time.Second, "periodic snapshot interval (needs -snapshot or -snapshot-dir)")
		rebEvery  = flag.Duration("rebalance-every", 0, "shard imbalance check interval, 0 = no auto-rebalance (-shards with -partition range)")
		rebSkew   = flag.Float64("rebalance-skew", 2, "rebalance when the largest shard exceeds this multiple of the mean")
		metrics   = flag.String("metrics", "", "serve /metrics, /statsz, and /debug/pprof/ on this address (e.g. 127.0.0.1:9100)")
		cacheSize = flag.Int("cache", 4096, "epoch-keyed result cache entries, 0 = off")
		maxFlight = flag.Int("max-inflight", 0, "shed queries beyond this many in flight, 0 = no cap")
		maxRows   = flag.Uint64("max-rows", 0, "reject queries whose plan estimates more scanned rows, 0 = no budget")
		maxBytes  = flag.Uint64("max-bytes", 0, "reject queries whose plan estimates more touched bytes, 0 = no budget")
	)
	flag.Parse()
	if *partition != "range" && *partition != "hash" {
		fatal(fmt.Errorf("unknown -partition %q (range, hash)", *partition))
	}
	// Reject the snapshot flag that the chosen mode would silently
	// ignore: an operator must not believe crash recovery is on when
	// nothing will ever be written.
	if *shards > 0 && *snapPath != "" {
		fatal(fmt.Errorf("-shards uses -snapshot-dir, not -snapshot"))
	}
	if *shards == 0 && *snapDir != "" {
		fatal(fmt.Errorf("-snapshot-dir needs -shards (use -snapshot without it)"))
	}

	// One registry serves both modes: the stores instrument themselves
	// through it, and -metrics exposes it over HTTP. The workload
	// collector rides along the same way — the store records into it per
	// query, and `topq`, `slowlog`, `stats`, and /workloadz read it back.
	reg := obs.NewRegistry()
	wl := wstats.New(wstats.Config{})

	liveCfg := live.Config{
		MergeThreshold: *mergeAt,
		CacheEntries:   *cacheSize,
		Metrics:        reg,
		Workload:       wl,
	}
	if *rebEvery > 0 && (*shards == 0 || *partition == "hash") {
		fatal(fmt.Errorf("-rebalance-every needs -shards with -partition range"))
	}
	shardCfg := sharded.Config{
		Shards:       *shards,
		Dim:          *partDim,
		Learned:      *partition != "hash",
		CacheEntries: *cacheSize,
		Metrics:      reg,
		Workload:     wl,
		Live:         liveCfg,
		SnapshotDir:  *snapDir,
		OnEvent:      printShardEvent,
		Rebalance: sharded.RebalanceConfig{
			CheckInterval: *rebEvery,
			MaxSkew:       *rebSkew,
		},
	}
	if *snapDir != "" {
		shardCfg.Live.SnapshotInterval = *snapEvery
	}

	// Without -shards the shell serves one LiveStore, which prints its
	// events and, with -snapshot, keeps a crash-recovery snapshot.
	liveCfg.OnEvent = printLiveEvent
	if *snapPath != "" {
		liveCfg.SnapshotPath = *snapPath
		liveCfg.SnapshotInterval = *snapEvery
	}

	s := &session{
		metrics:   reg,
		wl:        wl,
		lastStats: time.Now(),
		shutdown:  func() {},
	}
	var names []string

	switch {
	case *shards > 0 && *load != "":
		st, err := sharded.Recover(*load, nil, shardCfg)
		if err != nil {
			fatal(err)
		}
		s.shard = st
		names = st.Shard(0).Index().Store().Names()
		fmt.Printf("recovered sharded store: %d shards (%s), %d rows\n",
			st.NumShards(), st.Partitioner(), st.Stats().ClusteredRows+st.Stats().BufferedRows)
	case *shards > 0:
		ds := generate(*dataset, *rows, *dims, *seed)
		work := workload.ForDataset(ds, 100, *seed+1)
		names = ds.Store.Names()
		fmt.Printf("building %d-shard Tsunami over %s (%d rows, %d dims, %d sample queries)...\n",
			*shards, ds.Name, ds.Rows(), ds.Dims(), len(work))
		start := time.Now()
		st, err := sharded.Open(ds.Store, work, buildConfig(*seed), shardCfg)
		if err != nil {
			fatal(err)
		}
		s.shard = st
		fmt.Printf("built in %.1fs; partitioner %s; columns: %s\n",
			time.Since(start).Seconds(), st.Partitioner(), strings.Join(names, ", "))
	case *load != "":
		// A loaded index has no sample workload to fingerprint, so shift
		// detection only runs for freshly built indexes.
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		s.live, err = live.Recover(f, nil, liveCfg)
		f.Close()
		if err != nil {
			fatal(err)
		}
		idx := s.live.Index()
		names = idx.Store().Names()
		fmt.Printf("loaded index: %d rows, %d dims\n", idx.Store().NumRows(), idx.Store().NumDims())
	default:
		ds := generate(*dataset, *rows, *dims, *seed)
		work := workload.ForDataset(ds, 100, *seed+1)
		names = ds.Store.Names()
		fmt.Printf("building Tsunami over %s (%d rows, %d dims, %d sample queries)...\n",
			ds.Name, ds.Rows(), ds.Dims(), len(work))
		start := time.Now()
		s.live = live.Open(core.Build(ds.Store, work, buildConfig(*seed)), work, liveCfg)
		fmt.Printf("built in %.1fs; columns: %s\n", time.Since(start).Seconds(), strings.Join(names, ", "))
	}
	if s.live != nil {
		s.store = s.live
		fmt.Printf("live serving: merge threshold %d, shift detection %v\n",
			*mergeAt, s.live.Stats().DetectorTypes > 0)
	} else {
		s.store = s.shard
	}

	// Queries go through one Executor so the admission flags apply
	// (and the tsunami_admission_* fields always exist on /statsz, at 0
	// when admission is off). The stores instrument and record workload
	// stats themselves.
	s.ex = tsunami.NewExecutor(s.store, tsunami.ExecutorOptions{Metrics: reg, Admission: tsunami.AdmissionConfig{
		MaxInFlight: *maxFlight,
		MaxRows:     *maxRows,
		MaxBytes:    *maxBytes,
	}})

	// The observability endpoint binds synchronously so a bad address
	// fails loudly instead of the operator scraping a port nothing holds.
	var srv *http.Server
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatal(err)
		}
		srv = &http.Server{Handler: obs.Handler(reg,
			obs.Route{Path: "/workloadz", Handler: wstats.HTTPHandler(wl)})}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "tsunami-cli: metrics endpoint:", err)
			}
		}()
		fmt.Printf("metrics: http://%s/metrics (also /statsz, /workloadz, /debug/pprof/)\n", ln.Addr())
	}

	// Graceful shutdown, in dependency order: stop serving, stop ingest
	// and quiesce maintenance (final snapshots included), then let
	// in-flight scrapes finish before the HTTP server goes away.
	finals := []func(){s.ex.Close, func() {
		fmt.Println("shutting down: quiescing maintenance...")
		if err := s.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tsunami-cli: final snapshot:", err)
		}
	}}
	if srv != nil {
		finals = append(finals, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "tsunami-cli: metrics shutdown:", err)
			}
		})
	}
	var quiesce sync.Once
	s.shutdown = func() {
		quiesce.Do(func() {
			for _, f := range finals {
				f()
			}
		})
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println()
		s.shutdown()
		os.Exit(0)
	}()

	// Anchor the first `stats` rate window at serve time so build work
	// never dilutes the q/s and GB/s figures.
	s.lastSnap, s.lastStats = reg.Snapshot(), time.Now()

	fmt.Println(`type "help" for commands`)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if quit := eval(s, names, line); quit {
				s.shutdown()
				return
			}
		}
		fmt.Print("> ")
	}
	s.shutdown()
}

func buildConfig(seed int64) core.Config {
	return core.Config{
		Grid: auggrid.OptimizeConfig{
			Eval:     auggrid.EvalConfig{SampleSize: 2048, MaxQueries: 64},
			MaxCells: 1 << 16,
			MaxIters: 4,
			Seed:     seed,
		},
	}
}

func printLiveEvent(ev live.Event) {
	switch ev.Kind {
	case live.EventMerge:
		fmt.Printf("\n[live] merged %d rows in %.2fs (epoch %d)\n> ", ev.MergedRows, ev.Seconds, ev.Epoch)
	case live.EventReoptimize:
		fmt.Printf("\n[live] workload shift: re-optimized %d regions in %.2fs (epoch %d)\n> ", ev.RegionsRebuilt, ev.Seconds, ev.Epoch)
	case live.EventSnapshot:
		fmt.Printf("\n[live] snapshot written in %.2fs\n> ", ev.Seconds)
	case live.EventError:
		fmt.Printf("\n[live] maintenance error: %v\n> ", ev.Err)
	}
}

func printShardEvent(ev sharded.Event) {
	switch ev.Kind {
	case live.EventMerge:
		fmt.Printf("\n[shard %d] merged %d rows in %.2fs (epoch %d)\n> ", ev.Shard, ev.MergedRows, ev.Seconds, ev.Epoch)
	case live.EventReoptimize:
		fmt.Printf("\n[shard %d] workload shift: re-optimized %d regions in %.2fs (epoch %d)\n> ", ev.Shard, ev.RegionsRebuilt, ev.Seconds, ev.Epoch)
	case live.EventSnapshot:
		fmt.Printf("\n[shard %d] snapshot written in %.2fs\n> ", ev.Shard, ev.Seconds)
	case live.EventRebalance:
		fmt.Printf("\n[store] rebalanced: migrated %d rows in %.2fs (generation %d)\n> ", ev.MergedRows, ev.Seconds, ev.Epoch)
	case live.EventError:
		if ev.Shard < 0 {
			fmt.Printf("\n[store] rebalance error: %v\n> ", ev.Err)
		} else {
			fmt.Printf("\n[shard %d] maintenance error: %v\n> ", ev.Shard, ev.Err)
		}
	}
}

// eval executes one command; returns true to quit.
func eval(s *session, names []string, line string) bool {
	verb := strings.ToLower(strings.Fields(line)[0])
	switch verb {
	case "quit", "exit":
		return true
	case "help":
		fmt.Print(`commands:
  count <pred>...        COUNT(*) under the predicates, e.g. count qty=3 10<=day<=20
  sum <col> <pred>...    SUM(col)
                         append "by <col>" for a grouped aggregate (GROUP BY),
                         e.g. count day<=100 by store / sum price by qty
  explain <pred>...      run the query; show per-region ranges planned, rows scanned and matched
  trace <count|sum ...>  explain-analyze: run the query, show per-stage and per-shard timings
  stats                  index structure + serving telemetry (latency quantiles, scan volume)
  topq [n]               heaviest query shapes by count with per-shape latency (default 10)
  slowlog                slow-query log: queries beyond the adaptive p99 threshold, with traces
  insert v1,v2,...       add a row (visible immediately, merged in background)
  merge                  fold buffered rows into the clustered layout now
  rebalance              re-learn shard cuts and migrate rows online (sharded, range partitioner)
  save <file|dir>        persist the index (sharded: a snapshot directory)
  quit
`)
	case "stats":
		printStats(s)
	case "topq":
		n := 10
		if fields := strings.Fields(line); len(fields) == 2 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				fmt.Println("usage: topq [n]")
				return false
			}
			n = v
		}
		snap := s.wl.Snapshot()
		if len(snap.Fingerprints) == 0 {
			fmt.Println("no queries sampled yet")
			return false
		}
		if n > len(snap.Fingerprints) {
			n = len(snap.Fingerprints)
		}
		fmt.Printf("top %d query shapes (%s recorded, %d sampled 1-in-%d):\n",
			n, fmtCount(snap.Queries), snap.Sampled, snap.SampleEvery)
		for i, f := range snap.Fingerprints[:n] {
			fmt.Printf("#%d %-44s count~%d", i+1, f.Shape, f.Count)
			if f.ErrBound > 0 {
				fmt.Printf(" (±%d)", f.ErrBound)
			}
			fmt.Printf("  %.1f%%  p50 %s  p99 %s\n",
				100*f.Share, fmtSec(f.P50Seconds), fmtSec(f.P99Seconds))
		}
	case "slowlog":
		snap := s.wl.Snapshot()
		if snap.SlowThresholdSeconds == 0 {
			fmt.Printf("slow threshold not armed yet (%d sampled; it arms from the sampled p99)\n", snap.Sampled)
			return false
		}
		fmt.Printf("slow-query log: threshold %s (adaptive p99-based), %d slow seen, %d exemplars:\n",
			fmtSec(snap.SlowThresholdSeconds), snap.SlowSeen, len(snap.Slow))
		for _, e := range snap.Slow {
			fmt.Printf("[%s] %s — %s (matched %d, scanned %d rows, %s)\n",
				e.When.Format("15:04:05.000"), e.Query, fmtSec(e.Seconds),
				e.Matched, e.Rows, fmtBytes(e.Bytes))
			if e.Trace != "" {
				fmt.Print(e.Trace)
			}
		}
	case "trace":
		rest := strings.TrimSpace(line[len("trace"):])
		if rest == "" {
			fmt.Println("usage: trace <count|sum ...>, e.g. trace count qty=3 10<=day<=20")
			return false
		}
		q, err := qparse.Parse(rest, names)
		if err != nil {
			fmt.Println(err)
			return false
		}
		// The store's own pipeline, traced: it records the query like any
		// other, so traced queries do not skew the aggregates.
		x := index.Exec{Trace: new(obs.QueryTrace)}
		res := s.store.ExecuteWith(q, x)
		fmt.Print(x.Trace.String())
		printResult(q, names, res, 0)
	case "insert":
		rest := strings.TrimSpace(line[len("insert"):])
		parts := strings.Split(rest, ",")
		row := make([]int64, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				fmt.Printf("bad value %q\n", p)
				return false
			}
			row = append(row, v)
		}
		if err := s.store.Insert(row); err != nil {
			fmt.Println(err)
			return false
		}
		fmt.Printf("inserted (%d pending merge)\n", s.buffered())
	case "merge":
		start := time.Now()
		if err := s.store.Flush(); err != nil {
			fmt.Println(err)
			return false
		}
		if s.shard != nil {
			fmt.Printf("merged in %v; shards now hold %d rows\n", time.Since(start), s.shard.Stats().ClusteredRows)
		} else {
			fmt.Printf("merged in %v; table now %d rows\n", time.Since(start), s.index().Store().NumRows())
		}
	case "rebalance":
		if s.shard == nil {
			fmt.Println("rebalance needs -shards")
			return false
		}
		before := s.shard.Stats()
		start := time.Now()
		if err := s.shard.Rebalance(); err != nil {
			fmt.Println(err)
			return false
		}
		after := s.shard.Stats()
		skew, _ := s.shard.Skew()
		fmt.Printf("rebalanced in %v: migrated %d rows (generation %d, skew now %.2fx)\n",
			time.Since(start), after.RowsMigrated-before.RowsMigrated, after.Generation, skew)
	case "save":
		fields := strings.Fields(line)
		if len(fields) != 2 {
			fmt.Println("usage: save <file|dir>")
			return false
		}
		if s.shard != nil {
			if err := s.shard.Save(fields[1]); err != nil {
				fmt.Println(err)
				return false
			}
			fmt.Printf("saved %d-shard snapshot to %s\n", s.shard.NumShards(), fields[1])
			return false
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Println(err)
			return false
		}
		err = s.live.Snapshot(f)
		f.Close()
		if err != nil {
			fmt.Println(err)
			return false
		}
		fmt.Printf("saved to %s\n", fields[1])
	case "count", "sum", "explain":
		q, err := qparse.Parse(line, names)
		if err != nil {
			fmt.Println(err)
			return false
		}
		if verb == "explain" {
			// The store's traced pipeline: its region spans are the
			// EXPLAIN, recorded by the execution that answered.
			x := index.Exec{Trace: new(obs.QueryTrace)}
			res := s.store.ExecuteWith(q, x)
			fmt.Print(x.Trace.Explain())
			printResult(q, names, res, 0)
			return false
		}
		start := time.Now()
		res, err := s.ex.Serve(q, tsunami.PriorityInteractive)
		if err != nil {
			fmt.Println(err)
			return false
		}
		printResult(q, names, res, time.Since(start))
	default:
		fmt.Printf("unknown command %q (try help)\n", verb)
	}
	return false
}

// printResult renders an answer: a flat aggregate on one line, a grouped
// one as a line per group key, sorted by key (the merge order), then the
// totals; sum/avg columns only for SUM queries. elapsed == 0 suppresses
// the scan suffix (trace already printed stage timings).
func printResult(q query.Query, names []string, res colstore.ScanResult, elapsed time.Duration) {
	total := fmt.Sprintf("count=%d", res.Count)
	if q.Agg == query.Sum {
		total = fmt.Sprintf("sum=%d count=%d avg=%.2f", res.Sum, res.Count, res.Avg())
	}
	if q.Grouped() {
		gname := fmt.Sprintf("d%d", q.GroupDim())
		if d := q.GroupDim(); d < len(names) {
			gname = names[d]
		}
		for _, g := range res.Groups {
			if q.Agg == query.Sum {
				fmt.Printf("%s=%d: count=%d sum=%d avg=%.2f\n", gname, g.Key, g.Count, g.Sum, g.Avg())
			} else {
				fmt.Printf("%s=%d: count=%d\n", gname, g.Key, g.Count)
			}
		}
		total = fmt.Sprintf("%d groups, %d rows matched", len(res.Groups), res.Count)
	}
	if elapsed > 0 {
		total += fmt.Sprintf(" (scanned %d rows in %v)", res.PointsScanned, elapsed)
	}
	fmt.Println(total)
}

// printStats prints the index-structure block (Tab 4 of the paper)
// followed by one serving block whose schema is identical across the
// live and sharded modes — every figure in it is sourced from the
// shared metrics registry, so `stats` and a /metrics scrape can never
// disagree. Rates cover the window since the previous stats command.
func printStats(s *session) {
	st := s.index().IndexStats()
	scope := "" // the grid-tree lines describe one index: shard 0's when sharded
	if s.shard != nil {
		scope = "shard 0 "
	}
	fmt.Printf("%sgrid tree: %d nodes, depth %d, %d regions\n", scope, st.NumGridTreeNodes, st.GridTreeDepth, st.NumLeafRegions)
	fmt.Printf("%spoints/region: min=%d median=%d max=%d\n", scope, st.MinPointsPerRegion, st.MedianPointsPerRegion, st.MaxPointsPerRegion)
	fmt.Printf("%savg FMs/region=%.2f avg CCDFs/region=%.2f, %d grid cells\n",
		scope, st.AvgFMsPerRegion, st.AvgCCDFsPerRegion, st.TotalGridCells)
	fmt.Printf("store: %d bytes, %d buffered inserts\n", s.store.SizeBytes(), s.buffered())

	now := time.Now()
	snap := s.metrics.Snapshot()
	delta := snap.Diff(s.lastSnap)
	dt := now.Sub(s.lastStats).Seconds()
	s.lastSnap, s.lastStats = snap, now

	// End-to-end latency: the scatter-gather histogram when sharding (the
	// shared query-path histogram then counts per-shard executes), the
	// shared histogram otherwise.
	latName := obs.MQueryLatency
	if s.shard != nil {
		latName = obs.MShardedQueryLatency
	}
	lat := snap.Hists[latName]

	fmt.Printf("serving (rates over last %.1fs):\n", dt)
	fmt.Printf("  %-12s %s total, %s | %s\n", "queries",
		fmtCount(lat.Count()), fmtRate(float64(delta.Hists[latName].Count()), dt, "q/s"),
		fmtQuantiles(lat))
	fmt.Printf("  %-12s %s rows, %s | %s, %s\n", "scanned",
		fmtCount(snap.Counters[obs.MScanRows]), fmtBytes(snap.Counters[obs.MScanBytes]),
		fmtRate(float64(delta.Counters[obs.MScanRows])/1e6, dt, "Mrows/s"),
		fmtRate(float64(delta.Counters[obs.MScanBytes])/1e9, dt, "GB/s"))
	fmt.Printf("  %-12s %d rows buffered, %s ingested | ingest p99 %s\n", "ingest",
		s.buffered(), fmtCount(snap.Counters[obs.MLiveIngestRows]),
		fmtQuantile(snap.Hists[obs.MLiveIngestLatency], 0.99))
	if hits, ok := snap.Counters[obs.MCacheHits]; ok {
		misses := snap.Counters[obs.MCacheMisses]
		rate := "-"
		if total := hits + misses; total > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
		}
		var entries float64 // one gauge, or one per shard
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, obs.MCacheEntries) {
				entries += v
			}
		}
		fmt.Printf("  %-12s %s hits, %s misses (%s hit rate), %d entries, %s evictions\n", "cache",
			fmtCount(hits), fmtCount(misses), rate,
			int64(entries), fmtCount(snap.Counters[obs.MCacheEvictions]))
	}
	if admitted, ok := snap.Counters[obs.MAdmissionAdmitted]; ok {
		fmt.Printf("  %-12s %s admitted, %s shed, %s over budget, %d in flight\n", "admission",
			fmtCount(admitted), fmtCount(snap.Counters[obs.MAdmissionShed]),
			fmtCount(snap.Counters[obs.MAdmissionBudget]),
			int64(snap.Gauges[obs.MAdmissionInFlight]))
	}
	fmt.Printf("  %-12s %d merges, %d reoptimizations (%d detector fires), %d snapshots", "maintenance",
		snap.Counters[obs.MLiveMerges], snap.Counters[obs.MLiveReoptimizes],
		snap.Counters[obs.MLiveDetectorFires], snap.Counters[obs.MLiveSnapshots])
	if e, ok := snap.Gauges[obs.MLiveEpoch]; ok {
		fmt.Printf(", epoch %d", int64(e))
	}
	fmt.Println()

	wsnap := s.wl.Snapshot()
	fmt.Printf("  %-12s %s recorded (%d sampled 1-in-%d)", "workload",
		fmtCount(wsnap.Queries), wsnap.Sampled, wsnap.SampleEvery)
	if wsnap.SlowThresholdSeconds > 0 {
		fmt.Printf(", slow >%s: %d seen", fmtSec(wsnap.SlowThresholdSeconds), wsnap.SlowSeen)
	}
	fmt.Println()
	for i, f := range wsnap.Fingerprints {
		if i >= 3 {
			break
		}
		fmt.Printf("  %-12s #%d %s — %.1f%%, p99 %s\n", "",
			i+1, f.Shape, 100*f.Share, fmtSec(f.P99Seconds))
	}
	for _, o := range wsnap.SLO {
		fmt.Printf("  %-12s <%s target %.2f%%: %.3f%% bad, burn %.2fx\n", "slo",
			fmtSec(o.LatencySeconds), 100*o.Target, 100*o.BadFrac, o.BurnRate)
	}

	if s.shard == nil {
		return
	}
	fanout := snap.Hists[obs.MShardedFanout]
	fmt.Printf("  %-12s fan-out mean %.2f, %s shard scans, %s pruned\n", "routing",
		fanout.Mean(),
		fmtCount(snap.Counters[obs.MShardedShardsScanned]),
		fmtCount(snap.Counters[obs.MShardedShardsPruned]))
	fmt.Printf("  %-12s %d rebalances, %s rows migrated, skew %.2fx\n", "rebalance",
		snap.Counters[obs.MShardedRebalances],
		fmtCount(snap.Counters[obs.MShardedRowsMigrated]),
		snap.Gauges[obs.MShardedSkew])
	for i := 0; i < s.shard.NumShards(); i++ {
		label := fmt.Sprintf(`{shard="%d"}`, i)
		fmt.Printf("  %-12s epoch %d, %d buffered rows\n", fmt.Sprintf("shard %d", i),
			int64(snap.Gauges[obs.MLiveEpoch+label]),
			int64(snap.Gauges[obs.MLiveBufferedRows+label]))
	}
}

// fmtQuantiles renders a latency histogram's tail, or a placeholder
// before the first query so the schema keeps its shape.
func fmtQuantiles(h obs.HistSnapshot) string {
	if h.Count() == 0 {
		return "no queries yet"
	}
	return fmt.Sprintf("p50 %s  p95 %s  p99 %s  p999 %s",
		fmtQuantile(h, 0.5), fmtQuantile(h, 0.95),
		fmtQuantile(h, 0.99), fmtQuantile(h, 0.999))
}

// fmtQuantile renders one quantile, or "-" when the histogram has no
// samples yet (an empty histogram has no defined quantiles).
func fmtQuantile(h obs.HistSnapshot, q float64) string {
	v, ok := h.QuantileOK(q)
	if !ok {
		return "-"
	}
	return fmtSec(v)
}

func fmtSec(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

func fmtRate(v, dt float64, unit string) string {
	if dt <= 0 {
		return "- " + unit
	}
	return fmt.Sprintf("%.2f %s", v/dt, unit)
}

func fmtCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return strconv.FormatUint(n, 10)
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return strconv.FormatUint(n, 10) + " B"
}

func generate(name string, rows, dims int, seed int64) *datasets.Dataset {
	if rows < 1 {
		fatal(fmt.Errorf("-rows must be at least 1, got %d", rows))
	}
	synthetic := strings.EqualFold(name, "uniform") || strings.EqualFold(name, "correlated")
	if synthetic && dims < 1 {
		fatal(fmt.Errorf("-dims must be at least 1, got %d", dims))
	}
	switch strings.ToLower(name) {
	case "tpch":
		return datasets.TPCH(rows, seed)
	case "taxi":
		return datasets.Taxi(rows, seed)
	case "perfmon":
		return datasets.Perfmon(rows, seed)
	case "stocks":
		return datasets.Stocks(rows, seed)
	case "uniform":
		return datasets.SyntheticUniform(rows, dims, seed)
	case "correlated":
		return datasets.SyntheticCorrelated(rows, dims, seed)
	default:
		fatal(fmt.Errorf("unknown dataset %q", name))
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tsunami-cli:", err)
	os.Exit(1)
}
