// Package live turns a built, read-optimized Tsunami index into a
// concurrently-writable serving system — the epoch-based read-write mode
// the paper's §8 sketches around its insert and shift extensions.
//
// The design is RCU-style: the current index is an immutable *core.Tsunami
// behind an atomic pointer. Readers load the pointer and execute lock-free
// (the read path keeps all per-query state in pooled contexts, so any
// number of readers share one epoch). Writers go through a short serialized
// ingest section that derives a copy-on-write successor (core.
// CopyWithInserts shares the clustered data and grids, replacing only the
// affected delta buffers) and publishes it with one atomic swap. A single
// background maintenance goroutine keeps the hot path clean: when buffered
// rows cross a threshold it folds them into a new clustered copy
// (core.MergedCopyReusing: each region's fitted grid takes its buffered
// rows into its cells, and the copy is written into a retired epoch's
// column arrays when one is free), when the served query stream drifts from the optimized
// workload it re-optimizes the most-drifted region grids into a copy
// (core.ReoptimizeRegionsCopy) — closing the §8 adaptivity loop end to end
// — and it periodically snapshots the current epoch (including
// not-yet-merged rows) for crash recovery. Every maintenance result is
// published the same way: one atomic swap; old epochs drain as their
// readers finish and are reclaimed by the GC.
//
// The query path never waits, for writers or for maintenance. Its one
// lock is the shift detector's, and it only tries it: each served query is
// observed inline on the goroutine that served it (shift.Detector reads a
// sorted sample, so an observation is a few binary searches), or dropped
// and counted when the detector is busy; a detected shift nudges the
// maintainer. Index upkeep stays off the memory-bound hot loop (cf. the
// memory bottleneck argument of PIMDAL, arXiv:2504.01948).
package live

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/shift"
	"repro/internal/wstats"
)

// Config tunes a live store; zero values take defaults.
type Config struct {
	// MergeThreshold is the buffered-row count that triggers a background
	// merge into a fresh clustered copy (default 4096).
	MergeThreshold int
	// DisableShift turns shift detection off even when a workload is
	// available. Detection only runs when the store was opened with the
	// optimized workload.
	DisableShift bool
	// SnapshotInterval enables periodic crash-recovery snapshots of the
	// current epoch — including buffered-but-unmerged rows — to
	// SnapshotPath (0 disables).
	SnapshotInterval time.Duration
	// SnapshotPath is where periodic snapshots are written (atomically and
	// durably, see WriteAtomic). Required when SnapshotInterval > 0.
	SnapshotPath string
	// OnEvent, when non-nil, is called after each merge, re-optimization,
	// snapshot, or maintenance error — usually from the maintenance
	// goroutine, but a Flush caller emits its own merge event.
	// Invocations are serialized, so the callback needs no locking of its
	// own. It must not call back into the Store (except Stats).
	OnEvent func(Event)
	// Metrics, when non-nil, records the store's telemetry into the
	// registry: the shared query-path metrics (tsunami_query_latency_
	// seconds, rows/bytes scanned) plus ingest latency, merge/reoptimize/
	// snapshot durations, detector fires, and buffered-rows/epoch gauges
	// (tsunami_live_*). The counts Stats reports — queries, ingested rows,
	// merges, re-optimizations, snapshots, and the cache's hits, misses
	// and evictions — are registered as they are (Registry.CounterFunc),
	// not counted twice. Shard stores sharing one registry add into the
	// same counter and histogram series, so cross-shard aggregation
	// happens by construction (see OpenGated for how their gauges stay
	// apart). Nil disables instrumentation with zero hot-path cost.
	Metrics *obs.Registry
	// Workload, when non-nil, records every served query's shape,
	// latency, and result selectivity into the workload-statistics
	// collector (internal/wstats): heavy-hitter fingerprints, per-dim
	// selectivity, SLO counters, and the slow-query log. Open binds the
	// collector to this store (column names, domains, live row count, and
	// a trace function for slow-query exemplars). Same contract as
	// Metrics: nil keeps the hot path bare. A ShardedStore records at the
	// router instead and clears this per shard — set sharded.Config.
	// Workload there.
	Workload *wstats.Collector
	// CacheEntries, when > 0, enables the epoch-keyed query-result cache
	// (internal/qcache) with roughly that many entries. A hit serves a
	// previously computed result for the exact same canonical query at the
	// current epoch — invalidation is free because every publish bumps the
	// epoch, so a stale entry's key can never match again. 0 disables the
	// cache. Under a ShardedStore this is one shard's share (see
	// sharded.Config.CacheEntries).
	CacheEntries int
}

func (c *Config) fill() {
	if c.MergeThreshold <= 0 {
		c.MergeThreshold = 4096
	}
}

// EventKind labels a maintenance event.
type EventKind int

const (
	// EventMerge: buffered rows were folded into a fresh clustered copy.
	EventMerge EventKind = iota
	// EventReoptimize: drifted region grids were rebuilt for the observed
	// workload.
	EventReoptimize
	// EventSnapshot: the current epoch was persisted.
	EventSnapshot
	// EventError: a maintenance operation failed; the previous epoch
	// keeps serving.
	EventError
	// EventRebalance: rows migrated between shards. Emitted by the sharded
	// rebalancer (the event kinds are shared with the sharded layer), never
	// by a LiveStore itself.
	EventRebalance
)

func (k EventKind) String() string {
	switch k {
	case EventMerge:
		return "merge"
	case EventReoptimize:
		return "reoptimize"
	case EventSnapshot:
		return "snapshot"
	case EventError:
		return "error"
	case EventRebalance:
		return "rebalance"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event describes one completed maintenance operation.
type Event struct {
	Kind  EventKind
	Epoch uint64 // epoch published by the operation (0 for snapshots/errors)
	// MergedRows is how many buffered rows the operation clustered.
	MergedRows int
	// RegionsRebuilt is how many region grids a re-optimization rebuilt.
	RegionsRebuilt int
	Seconds        float64
	Err            error // non-nil only for EventError
}

// errClosed reports writes or maintenance requested after Close.
var errClosed = errors.New("live: store is closed")

// liveMetrics caches the store's resolved instruments so the query and
// ingest paths never touch the registry. What Stats already counts is not
// here: newLiveMetrics registers those counts with the registry.
type liveMetrics struct {
	qm            *obs.QueryMetrics
	ingestLatency *obs.Histogram
	mergeSeconds  *obs.Histogram
	reoptSeconds  *obs.Histogram
	snapSeconds   *obs.Histogram
	detectorFires *obs.Counter
	// regimes counts executed grouped queries by the accumulation path
	// they ran on, indexed by colstore.GroupRegime (RegimeNone stays nil,
	// a no-op).
	regimes [4]*obs.Counter
}

func newLiveMetrics(s *Store, r *obs.Registry, label string) *liveMetrics {
	if r == nil {
		return nil
	}
	m := &liveMetrics{
		qm:            obs.NewQueryMetrics(r),
		ingestLatency: r.DurationHistogram(obs.MLiveIngestLatency),
		mergeSeconds:  r.DurationHistogram(obs.MLiveMergeSeconds),
		reoptSeconds:  r.DurationHistogram(obs.MLiveReoptSeconds),
		snapSeconds:   r.DurationHistogram(obs.MLiveSnapSeconds),
		detectorFires: r.Counter(obs.MLiveDetectorFires),
	}
	for _, g := range []colstore.GroupRegime{colstore.RegimeByteCode, colstore.RegimeDense, colstore.RegimeHash} {
		m.regimes[g] = r.Counter(obs.MGroupedRegime + `{regime="` + g.String() + `"}`)
	}
	// The store's own counts, unlabeled: every store on the registry adds
	// into one series.
	r.CounterFunc(obs.MQueries, s.queries.Load)
	r.CounterFunc(obs.MLiveIngestRows, s.inserts.Load)
	r.CounterFunc(obs.MLiveMerges, s.merges.Load)
	r.CounterFunc(obs.MLiveReoptimizes, s.reopts.Load)
	r.CounterFunc(obs.MLiveSnapshots, s.snapshots.Load)
	// Level gauges read the current epoch at scrape time instead of being
	// pushed on every swap; labeled per shard when stores share a registry.
	r.GaugeFunc(obs.MLiveBufferedRows+label, func() float64 {
		return float64(s.cur.Load().idx.NumBuffered())
	})
	r.GaugeFunc(obs.MLiveEpoch+label, func() float64 {
		return float64(s.cur.Load().epoch)
	})
	return m
}

// version is one published epoch: an immutable index plus how much of the
// store's replay log its delta buffers already reflect, and the ref of
// its column store.
type version struct {
	idx    *core.Tsunami
	epoch  uint64
	logLen int
	ref    *storeRef
}

// storeRef counts the readers of one published column store, so that once
// a merge or re-optimization has replaced it and its last reader is done,
// its arrays can become the spare the next merge writes into. Versions
// that ingest derives share their predecessor's store, and its ref. state
// packs the count of pinned readers (low bits) with the flags below.
type storeRef struct {
	store *colstore.Store
	state atomic.Int64
}

const (
	refRetired  = 1 << 40 // no longer current: nobody pins it afresh
	refEscaped  = 1 << 41 // held outside the store (the opened index, Index()): never recycled
	refRecycled = 1 << 42 // its arrays went to the spare
)

// Store is an epoch-based read-write serving layer over a Tsunami index.
//
// Concurrency: Execute/ExecuteWith/Plan/Stats may be called
// from any number of goroutines, and never block on writers or
// maintenance. Insert/InsertBatch may be called from any number of
// goroutines; they serialize on a short critical section (derive + swap)
// whose cost is proportional to the batch, not the data. All maintenance
// runs on one background goroutine owned by the Store.
type Store struct {
	cfg Config

	cur atomic.Pointer[version]

	// mu guards ingest and epoch publication: the log, the closed flag,
	// and the compare-free cur.Store calls (publication order = lock
	// order). Held only for copy-on-write derivation and replay, never
	// during merges or re-optimizations.
	mu     sync.Mutex
	log    [][]int64 // rows in the current epoch's delta buffers, oldest first
	closed bool

	// maintMu serializes the maintenance operations themselves (background
	// goroutine, Flush, Snapshot), so at most one rebuild runs at a time.
	maintMu sync.Mutex

	// emitMu serializes OnEvent invocations (events are emitted from the
	// maintenance goroutine and from Flush callers).
	emitMu sync.Mutex

	wake    chan struct{} // nudges maintenance when the threshold trips
	shifted chan struct{} // nudges maintenance when the detector reports a shift; nil: detection off
	gate    chan struct{} // shared with the stores it takes turns with; nil: none (see OpenGated)
	quit    chan struct{}
	done    chan struct{}

	// Close is funneled through closeOnce; every caller waits on
	// closeDone so all of them return only after the final snapshot (if
	// configured) is on disk.
	closeOnce sync.Once
	closeDone chan struct{}
	closeErr  error

	// detMu guards detector. The query path only TryLocks it; the
	// maintainer locks it to read the window and to swap in a successor.
	detMu    sync.Mutex
	detector *shift.Detector

	metrics *liveMetrics // nil when instrumentation is off

	// cache is the epoch-keyed result cache; nil when disabled. It keeps
	// its own hit, miss and eviction counts.
	cache *qcache.Cache

	// spare is a retired store's column arrays, which the next merge
	// writes its successor into (core.MergedCopyReusing); nil when none.
	spareMu sync.Mutex
	spare   [][]int64

	queries       *obs.Counter // striped: every served query counts here
	inserts       atomic.Uint64
	merges        atomic.Uint64
	flushes       atomic.Int32 // Flush calls waiting or merging: background merges give way
	reopts        atomic.Uint64
	snapshots     atomic.Uint64
	droppedObs    atomic.Uint64
	detectorTypes atomic.Int64 // mirrored from the detector for Stats
}

// Open starts serving idx. optimized is the sample workload the index was
// built for; it seeds the shift detector's fingerprint (pass nil to serve
// without shift detection).
func Open(idx *core.Tsunami, optimized []query.Query, cfg Config) *Store {
	return OpenGated(idx, optimized, cfg, nil, "")
}

// OpenGated is Open for a store that takes turns at background merges
// with the other stores opened on the same gate, a channel of capacity 1:
// a threshold-triggered merge holds the gate's one slot while it runs, so
// no two of them merge at once. A merge rewrites its whole store, so this
// caps what maintenance takes from readers at one CPU and one transient
// copy, and it makes a write burst's merge count independent of goroutine
// scheduling (see sharded.Store). Flush does not take the gate: it is the
// caller asking for the work now. label, when non-empty, is appended to
// the store's gauge names (e.g. `{shard="3"}`) so per-shard levels stay
// distinguishable on a shared Config.Metrics registry; counters and
// histograms are never labeled — sharing those instances is what makes
// shard metrics aggregate. A nil gate and an empty label is Open.
func OpenGated(idx *core.Tsunami, optimized []query.Query, cfg Config, gate chan struct{}, label string) *Store {
	cfg.fill()
	s := &Store{
		cfg:       cfg,
		wake:      make(chan struct{}, 1),
		gate:      gate,
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		closeDone: make(chan struct{}),
	}
	// Rows already buffered in the index (e.g. restored from a snapshot
	// taken mid-stream) seed the replay log, so the first merge accounts
	// for them exactly like rows ingested through the Store.
	s.log = idx.BufferedRows()
	s.queries = obs.NewCounter()
	ref := &storeRef{store: idx.Store()}
	ref.state.Store(refEscaped) // the caller holds idx
	s.cur.Store(&version{idx: idx, epoch: 1, logLen: len(s.log), ref: ref})
	s.metrics = newLiveMetrics(s, cfg.Metrics, label)
	if cfg.CacheEntries > 0 {
		s.cache = qcache.New(cfg.CacheEntries)
		if r := cfg.Metrics; r != nil {
			r.CounterFunc(obs.MCacheHits, func() uint64 { return s.cache.Stats().Hits })
			r.CounterFunc(obs.MCacheMisses, func() uint64 { return s.cache.Stats().Misses })
			r.CounterFunc(obs.MCacheEvictions, func() uint64 { return s.cache.Stats().Evictions })
			r.GaugeFunc(obs.MCacheEntries+label, func() float64 {
				return float64(s.cache.Len())
			})
		}
	}
	if len(optimized) > 0 && !cfg.DisableShift {
		s.detector = shift.NewDetector(idx.Store(), optimized)
		s.detectorTypes.Store(int64(s.detector.NumTypes()))
		s.shifted = make(chan struct{}, 1)
	}
	if cfg.Workload != nil {
		rows := func() uint64 {
			idx := s.cur.Load().idx
			return uint64(idx.Store().NumRows() + idx.NumBuffered())
		}
		// Slow-query exemplars re-run through the current epoch's core
		// index directly — the same pipeline the query was served on,
		// minus this layer — so a capture never re-records into the
		// collector or the detector.
		trace := func(q query.Query) *obs.QueryTrace {
			tr := new(obs.QueryTrace)
			v := s.acquire()
			v.idx.ExecuteWith(q, index.Exec{Trace: tr})
			s.release(v.ref)
			return tr
		}
		cfg.Workload.Bind(wstats.BindingOf(rows, trace, idx.Store()))
	}
	go s.maintain()
	// A restored index may already hold a threshold's worth of buffered
	// rows; nudge the maintainer so a read-only workload doesn't pay the
	// delta-scan penalty forever.
	if idx.NumBuffered() >= cfg.MergeThreshold {
		s.wake <- struct{}{}
	}
	// Surface the one silent misconfiguration: an interval with no path
	// would otherwise disable every snapshot, including the final one on
	// Close, while the operator believes crash recovery is on.
	if cfg.SnapshotInterval > 0 && cfg.SnapshotPath == "" {
		s.emit(Event{Kind: EventError, Err: errors.New("live: SnapshotInterval set without SnapshotPath; snapshots are disabled")})
	}
	return s
}

// Recover reopens a store from a snapshot written by Snapshot (or
// core.Tsunami.Save): clustered data, grids, and any rows that were
// buffered but not yet merged at snapshot time.
func Recover(r io.Reader, optimized []query.Query, cfg Config) (*Store, error) {
	idx, err := core.Load(r)
	if err != nil {
		return nil, fmt.Errorf("live: recover: %w", err)
	}
	return Open(idx, optimized, cfg), nil
}

// Execute implements index.Index: ExecuteWith, inline and untraced.
func (s *Store) Execute(q query.Query) colstore.ScanResult {
	return s.ExecuteWith(q, index.Exec{})
}

// ExecuteGrouped is Execute; a query built with By carries its own
// grouping, so the name adds nothing and is kept for callers that have it.
func (s *Store) ExecuteGrouped(q query.Query) colstore.GroupedResult {
	return s.ExecuteWith(q, index.Exec{})
}

// ExecuteWith answers one query — flat or grouped — against the current
// epoch, lock-free: Plan, then Execute.
func (s *Store) ExecuteWith(q query.Query, x index.Exec) colstore.ScanResult {
	return s.Plan(q, x).Execute()
}

// plan is one query planned at one epoch: either the cache's entry for
// it there, or the index's own plan on the version it pinned.
type plan struct {
	s      *Store
	v      *version // pinned; nil for a cached answer, which reads no store
	q      query.Query
	began  time.Duration // obs.Mono() at Plan, when metrics or workload stats record the query
	probed bool          // the cache was looked up and missed: Execute counts the miss
	hit    *qcache.Entry // the cache's answer; core is nil
	core   index.Plan
}

var planPool = sync.Pool{New: func() any { return new(plan) }}

// Plan plans q at the current epoch: an answer the result cache holds
// there is the whole plan, priced (0, 0); otherwise the plan is the
// index's (core.Tsunami.Plan, to which x passes through) on the current
// version, pinned. A cached answer pins nothing and reads no column
// store: beyond the cache stripe's lock, a served hit writes only its
// entry's count and striped counters. Executing the plan adds this
// layer's concerns, each exactly once — the cache fill, metrics and
// workload-statistics recording, and the shift detector's observation
// (inline; dropped, not waited for, when another goroutine holds the
// detector). Buffered-but-unmerged rows are folded in by the index's
// delta scan. An epoch is immutable, so a plan executed after later
// publishes returns exactly its epoch's answer. A traced plan prefixes
// the trace with the epoch, always executes (it skips the cache lookup),
// and is accounted exactly like an untraced one, so traced queries do not
// skew the aggregates they are debugging.
func (s *Store) Plan(q query.Query, x index.Exec) index.Plan {
	p := planPool.Get().(*plan)
	p.s, p.q = s, q
	if s.metrics != nil || s.cfg.Workload != nil {
		p.began = obs.Mono()
	}
	tr := x.Trace
	if tr == nil && s.cache != nil {
		if p.hit = s.cache.Peek(s.cur.Load().epoch, q); p.hit != nil {
			return p
		}
		p.probed = true
	}
	v := s.acquire()
	p.v = v
	if tr != nil {
		tr.AddStage("epoch", 0, fmt.Sprintf("serving epoch %d (%d buffered rows)", v.epoch, v.idx.NumBuffered()))
	}
	p.core = v.idx.Plan(q, x)
	return p
}

// Cost is the index plan's price, or (0, 0) for a cached answer.
func (p *plan) Cost() (rows, bytes uint64) {
	if p.core == nil {
		return 0, 0
	}
	return p.core.Cost()
}

// Began is the obs.Mono reading the plan was made at, where its latency
// starts, or 0 when the store records nothing: an Executor ends a batch
// query's queue wait there.
func (p *plan) Began() time.Duration { return p.began }

// Release gives the plan back unexecuted: nothing was counted yet. It
// unpins the version the plan pinned, if it pinned one.
func (p *plan) Release() {
	if p.core != nil {
		p.core.Release()
	}
	s, v := p.s, p.v
	*p = plan{}
	planPool.Put(p)
	if v != nil {
		s.release(v.ref)
	}
}

// Execute serves the plan: the cached answer, or the index plan's, which
// is then cached under the pinned epoch. Either way the query is counted
// and recorded into metrics and workload stats — a hit with zero rows and
// bytes scanned, the point of the hit — and observed by the shift
// detector, so cached traffic cannot blind the adaptivity loop. Recorded
// latency runs from the plan to the answer: two clock reads a query.
func (p *plan) Execute() colstore.ScanResult {
	s, q := p.s, p.q
	n := s.queries.Inc()
	var res colstore.ScanResult
	var rows, bytes uint64
	hit := p.hit != nil
	if hit {
		s.cache.Hit(p.hit)
		res = p.hit.Result().Clone()
	} else {
		if p.probed {
			s.cache.Miss()
		}
		res = p.core.Execute()
		p.core = nil
		rows, bytes = res.PointsScanned, res.BytesTouched
	}
	if m, w := s.metrics, s.cfg.Workload; m != nil || w != nil {
		d := obs.Mono() - p.began
		if m != nil {
			m.qm.Observe(d, rows, bytes)
			if !hit {
				m.regimes[res.Regime].Inc()
			}
		}
		w.Record(q, d, res.Count, rows, bytes)
	}
	if !hit && s.cache != nil {
		// v.idx is immutable, so res is exactly epoch v's answer even if a
		// newer epoch has published since: the entry is then merely
		// unreachable (its epoch is no longer current), never wrong.
		s.cache.Put(p.v.epoch, q, res)
	}
	if s.shifted != nil {
		s.observe(q, n)
	}
	p.Release()
	return res
}

// observe feeds the detector a served query and, when n (the query's
// stripe sequence from the query counter) is a multiple of 16, analyzes
// the window: a shift nudges the maintainer, which re-checks it.
// A query that finds the detector held — by another query's observation,
// or by the maintainer — is dropped and counted, never waited for.
func (s *Store) observe(q query.Query, n uint64) {
	if !s.detMu.TryLock() {
		s.droppedObs.Add(1)
		return
	}
	s.detector.Observe(q)
	fire := n%16 == 0 && s.detector.Analyze().ShiftDetected
	s.detMu.Unlock()
	if fire {
		select {
		case s.shifted <- struct{}{}:
		default:
		}
	}
}

// Name implements index.Index.
func (s *Store) Name() string { return "LiveStore[" + s.cur.Load().idx.Name() + "]" }

// SizeBytes implements index.Index for the current epoch.
func (s *Store) SizeBytes() uint64 { return s.cur.Load().idx.SizeBytes() }

// Index returns the latest published epoch's index. The returned index is
// immutable; it stays valid (and consistent) for as long as the caller
// holds it, even across later swaps: its column arrays are never handed
// to a later merge.
func (s *Store) Index() *core.Tsunami {
	v := s.acquire()
	v.ref.state.Or(refEscaped)
	s.release(v.ref)
	return v.idx
}

// Epoch returns the current epoch number; it advances by one per
// published version (ingest batch, merge, or re-optimization).
func (s *Store) Epoch() uint64 { return s.cur.Load().epoch }

// EstimateCost is the price of q's plan against the current epoch,
// planned and released unexecuted (see Plan): (0, 0) for a query the
// result cache holds there, which serving scans nothing for.
func (s *Store) EstimateCost(q query.Query) (rows, bytes uint64) {
	p := s.Plan(q, index.Exec{})
	defer p.Release()
	return p.Cost()
}

// Insert ingests one row. It becomes visible to queries as soon as Insert
// returns.
func (s *Store) Insert(row []int64) error { return s.InsertBatch([][]int64{row}) }

// InsertBatch ingests rows as one copy-on-write step — one derived
// version and one epoch swap for the whole batch — and returns once they
// are visible to queries.
func (s *Store) InsertBatch(rows [][]int64) error {
	if len(rows) == 0 {
		return nil
	}
	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	// One defensive copy of the batch, shared by the index's delta buffers
	// and the replay log (both treat rows as immutable once ingested): the
	// rows are laid end to end in one backing array, each capped at its
	// own length.
	size := 0
	for _, row := range rows {
		size += len(row)
	}
	flat, copied := make([]int64, 0, size), make([][]int64, len(rows))
	for i, row := range rows {
		at := len(flat)
		flat = append(flat, row...)
		copied[i] = flat[at:len(flat):len(flat)]
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	v := s.cur.Load()
	nidx, err := v.idx.CopyWithInserts(copied)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.log = append(s.log, copied...)
	buffered := nidx.NumBuffered()
	s.publishLocked(nidx, len(s.log))
	s.mu.Unlock()

	s.inserts.Add(uint64(len(rows)))
	if m := s.metrics; m != nil {
		m.ingestLatency.RecordDuration(time.Since(start))
	}
	if buffered >= s.cfg.MergeThreshold {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// publishLocked swaps in idx as the next epoch. Callers hold s.mu. When
// idx brings a new column store, the replaced one is retired.
func (s *Store) publishLocked(idx *core.Tsunami, logLen int) {
	old := s.cur.Load()
	ref := old.ref
	if idx.Store() != ref.store {
		ref = &storeRef{store: idx.Store()}
	}
	s.cur.Store(&version{idx: idx, epoch: old.epoch + 1, logLen: logLen, ref: ref})
	if ref != old.ref {
		s.retire(old.ref)
	}
}

// acquire returns the current version with its column store pinned:
// until release, the store's arrays are not recycled. The pin is taken
// before the store is checked to still be current, so a store that is
// retired in between is never read, only pinned and released.
func (s *Store) acquire() *version {
	for {
		v := s.cur.Load()
		v.ref.state.Add(1)
		if w := s.cur.Load(); w.ref == v.ref {
			return w
		}
		s.release(v.ref)
	}
}

// release unpins r; the last reader of a retired store recycles it.
func (s *Store) release(r *storeRef) {
	if r.state.Add(-1) == refRetired {
		s.recycle(r)
	}
}

// retire marks r replaced; with no reader left it is recycled at once.
func (s *Store) retire(r *storeRef) {
	if r.state.Add(refRetired) == refRetired {
		s.recycle(r)
	}
}

// recycle makes a retired, unread, never-escaped store's column arrays
// the spare, keeping the roomier of it and the one already there. Of
// the callers that see r so, exactly one gets past the swap.
func (s *Store) recycle(r *storeRef) {
	if !r.state.CompareAndSwap(refRetired, refRetired|refRecycled) {
		return
	}
	cols := make([][]int64, r.store.NumDims())
	for j := range cols {
		cols[j] = r.store.Column(j)
	}
	s.putSpare(cols)
}

// putSpare keeps the roomier of cols and the spare already there.
func (s *Store) putSpare(cols [][]int64) {
	s.spareMu.Lock()
	if len(cols) > 0 && (s.spare == nil || cap(cols[0]) > cap(s.spare[0])) {
		s.spare = cols
	}
	s.spareMu.Unlock()
}

// takeSpare hands a merge of idx column arrays with room for its rows:
// the spare when it has the room, else fresh arrays with half as much
// room again, so that they can take the next merges too once retired.
func (s *Store) takeSpare(idx *core.Tsunami) [][]int64 {
	need := idx.Store().NumRows() + idx.NumBuffered()
	s.spareMu.Lock()
	spare := s.spare
	s.spare = nil
	s.spareMu.Unlock()
	if len(spare) > 0 && cap(spare[0]) >= need {
		return spare
	}
	spare = make([][]int64, idx.Store().NumDims())
	for j := range spare {
		spare[j] = make([]int64, 0, need+need/2)
	}
	return spare
}

// publishSuccessor finishes every maintenance operation: next was derived,
// off the hot path, from epoch v, so the rows ingested since v was captured
// are missing from it. Under s.mu — writers wait only for this short
// section — they are replayed into it with one CopyWithInserts (the log's
// rows are the store's own copies, never written again, so the successor
// may keep them), the replay log is trimmed to them, and the result is
// published as the returned epoch. Rows divert accepts (nil: none) are
// returned instead of replayed: an extraction's in-range tail leaves with
// its moved set. Nothing is published on error — errClosed when Close won
// the race with the rebuild.
func (s *Store) publishSuccessor(v *version, next *core.Tsunami, divert func(row []int64) bool) ([][]int64, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, errClosed
	}
	tail := s.log[v.logLen:]
	kept := make([][]int64, 0, len(tail))
	var diverted [][]int64
	for _, row := range tail {
		if divert != nil && divert(row) {
			diverted = append(diverted, row)
			continue
		}
		kept = append(kept, row)
	}
	if len(kept) > 0 {
		var err error
		if next, err = next.CopyWithInserts(kept); err != nil {
			return nil, 0, err
		}
	}
	s.log = kept
	s.publishLocked(next, len(s.log))
	return diverted, s.cur.Load().epoch, nil
}

// Flush synchronously folds every buffered row into a fresh clustered
// copy and publishes it, like a threshold-triggered background merge.
// Concurrent inserts remain buffered in the published epoch. Flush on a
// closed store returns an error. A background merge in flight is
// abandoned before its next region or before it publishes, and Flush
// folds its rows with the rest: otherwise a Flush right after a write burst waited for one merge
// and then ran another, or two when the maintainer started a second one
// while the writer was still inserting, as goroutine timing had it.
func (s *Store) Flush() error {
	s.flushes.Add(1)
	defer s.flushes.Add(-1)
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.mergeLocked(nil)
}

// Snapshot writes the current epoch — including buffered-but-unmerged
// rows — to w. It never blocks readers or writers (Save is a pure read of
// an immutable epoch).
func (s *Store) Snapshot(w io.Writer) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if err := s.cur.Load().idx.Save(w); err != nil {
		return err
	}
	s.snapshots.Add(1)
	return nil
}

// Stats is a point-in-time summary of a live store.
type Stats struct {
	Epoch         uint64
	ClusteredRows int
	BufferedRows  int
	// DetectorTypes is the number of fingerprinted query types (0 when
	// shift detection is off).
	DetectorTypes int

	Queries         uint64
	Inserts         uint64
	Merges          uint64
	Reoptimizations uint64
	Snapshots       uint64
	// DroppedObservations counts served queries the shift detector did
	// not observe: the query found the detector held by another query's
	// observation or by the maintainer, and served on without waiting.
	DroppedObservations uint64
	// Cache is the result cache's counters; all-zero when disabled.
	Cache qcache.Stats
}

// Stats reports current counters. Safe from any goroutine.
func (s *Store) Stats() Stats {
	v := s.cur.Load()
	st := Stats{
		Epoch:               v.epoch,
		ClusteredRows:       v.idx.Store().NumRows(),
		BufferedRows:        v.idx.NumBuffered(),
		Queries:             s.queries.Load(),
		Inserts:             s.inserts.Load(),
		Merges:              s.merges.Load(),
		Reoptimizations:     s.reopts.Load(),
		Snapshots:           s.snapshots.Load(),
		DroppedObservations: s.droppedObs.Load(),
	}
	st.DetectorTypes = int(s.detectorTypes.Load())
	st.Cache = s.cache.Stats()
	return st
}

// CacheStats reports the result cache's counters (all-zero when the
// cache is disabled). Safe from any goroutine.
func (s *Store) CacheStats() qcache.Stats { return s.cache.Stats() }

// Close stops ingest and maintenance and waits for the maintenance
// goroutine to exit. If periodic snapshots are configured, a final
// snapshot is written first; concurrent Close calls all block until it
// is on disk. Reads against the Store remain valid after Close (they
// serve the last published epoch).
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.quit)
		<-s.done
		if s.cfg.SnapshotInterval > 0 && s.cfg.SnapshotPath != "" {
			s.closeErr = s.snapshotToPath()
		}
		close(s.closeDone)
	})
	<-s.closeDone
	return s.closeErr
}

// ---------------------------------------------------------------------------
// Maintenance goroutine.

func (s *Store) maintain() {
	defer close(s.done)
	var tick <-chan time.Time
	if s.cfg.SnapshotInterval > 0 && s.cfg.SnapshotPath != "" {
		t := time.NewTicker(s.cfg.SnapshotInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.quit:
			return
		case <-s.shifted:
			s.runReoptimize()
		case <-s.wake:
			s.runMerge()
		case <-tick:
			s.runSnapshot()
		}
	}
}

func (s *Store) runMerge() {
	// The gate before maintMu: a merge waiting its turn must not hold off
	// this store's own Flush.
	if s.gate != nil {
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
		case <-s.quit:
			return
		}
	}
	s.maintMu.Lock()
	err := s.mergeLocked(func() bool { return s.flushes.Load() > 0 })
	s.maintMu.Unlock()
	if errors.Is(err, core.ErrStopped) {
		return // a Flush took the rows over
	}
	// A merge losing the race with Close is a normal shutdown, not an
	// error worth reporting.
	if err != nil && !errors.Is(err, errClosed) {
		s.emit(Event{Kind: EventError, Err: err})
	}
}

// mergeLocked derives a clustered copy with the buffered rows folded in
// (core.MergedCopyReusing), replays rows ingested while it ran, and
// publishes the result.
// Readers are never blocked; writers only during the short replay. stop
// (nil: never) abandons the merge, between regions or before it
// publishes, with core.ErrStopped.
func (s *Store) mergeLocked(stop func() bool) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return errClosed
	}
	v := s.cur.Load()
	if v.idx.NumBuffered() == 0 {
		return nil
	}
	start := time.Now()
	spare := s.takeSpare(v.idx)
	// Long: runs against the immutable epoch.
	merged, folded, err := v.idx.MergedCopyReusing(spare, stop)
	if err == nil && stop != nil && stop() {
		// Finished, but a Flush waits to fold these rows and the rest:
		// publishing first would cost it a replay and one more merge.
		err = core.ErrStopped
	}
	if errors.Is(err, core.ErrStopped) {
		s.putSpare(spare) // nothing else saw its arrays
		return err
	}
	if err != nil {
		return fmt.Errorf("live: merge: %w", err)
	}
	_, epoch, err := s.publishSuccessor(v, merged, nil)
	if err != nil {
		return fmt.Errorf("live: merge: %w", err)
	}

	s.merges.Add(1)
	if m := s.metrics; m != nil {
		m.mergeSeconds.RecordDuration(time.Since(start))
	}
	s.emit(Event{Kind: EventMerge, Epoch: epoch, MergedRows: folded, Seconds: time.Since(start).Seconds()})
	return nil
}

// runReoptimize re-checks the shift the query path reported and, if the
// detector still reports it, rebuilds the most-drifted region grids for
// the window's queries (buffered rows are merged as part of the rebuild),
// publishes the result, and swaps in a detector fingerprinted on that
// workload, so one shift triggers one re-optimization.
func (s *Store) runReoptimize() {
	var work []query.Query
	s.detMu.Lock()
	if s.detector.Analyze().ShiftDetected {
		work = s.detector.Recent()
	}
	s.detMu.Unlock()
	if len(work) == 0 {
		return
	}
	if m := s.metrics; m != nil {
		m.detectorFires.Inc()
	}
	s.maintMu.Lock()
	v := s.cur.Load()
	start := time.Now()
	reopt, n, _, err := v.idx.ReoptimizeRegionsCopy(work, 0)
	if err != nil {
		s.maintMu.Unlock()
		s.emit(Event{Kind: EventError, Err: fmt.Errorf("live: reoptimize: %w", err)})
		return
	}
	_, epoch, err := s.publishSuccessor(v, reopt, nil)
	s.maintMu.Unlock()
	if err != nil {
		if !errors.Is(err, errClosed) {
			s.emit(Event{Kind: EventError, Err: fmt.Errorf("live: reoptimize replay: %w", err)})
		}
		return
	}

	s.reopts.Add(1)
	if m := s.metrics; m != nil {
		m.reoptSeconds.RecordDuration(time.Since(start))
	}
	// Re-fingerprint on the workload we just optimized for, over the new
	// clustered store, with an empty window: drift is now measured against
	// the post-shift baseline.
	det := shift.NewDetector(reopt.Store(), work)
	s.detMu.Lock()
	s.detector = det
	s.detMu.Unlock()
	s.detectorTypes.Store(int64(det.NumTypes()))
	s.emit(Event{Kind: EventReoptimize, Epoch: epoch, RegionsRebuilt: n, Seconds: time.Since(start).Seconds()})
}

func (s *Store) runSnapshot() {
	s.maintMu.Lock()
	err := s.snapshotLocked()
	s.maintMu.Unlock()
	if err != nil {
		s.emit(Event{Kind: EventError, Err: err})
	}
}

func (s *Store) snapshotToPath() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked persists the current epoch atomically and durably (see
// WriteAtomic): a crash mid-write leaves the previous snapshot intact.
func (s *Store) snapshotLocked() error {
	start := time.Now()
	if err := WriteAtomic(s.cfg.SnapshotPath, s.cur.Load().idx.Save); err != nil {
		return fmt.Errorf("live: snapshot: %w", err)
	}
	s.snapshots.Add(1)
	if m := s.metrics; m != nil {
		m.snapSeconds.RecordDuration(time.Since(start))
	}
	s.emit(Event{Kind: EventSnapshot, Seconds: time.Since(start).Seconds()})
	return nil
}

func (s *Store) emit(ev Event) {
	if s.cfg.OnEvent == nil {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.cfg.OnEvent(ev)
}
