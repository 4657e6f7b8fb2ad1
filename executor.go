package tsunami

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
)

// ExecutorOptions configures an Executor. The zero value uses one worker
// per CPU.
type ExecutorOptions struct {
	// Workers is the size of the worker pool ExecuteBatch spreads its
	// queries over (default runtime.NumCPU()).
	Workers int
	// Metrics, when non-nil, records pool telemetry into the registry —
	// ExecuteBatch's queue wait and depth (tsunami_exec_* metric names) —
	// and admission outcomes (tsunami_admission_*). A query's latency is
	// the index's to record: a LiveStore or ShardedStore times each query
	// it serves, from its plan to its answer. Nil leaves the hot path
	// exactly as uninstrumented — submitted tasks are not even wrapped.
	Metrics *obs.Registry
	// Admission, when any field is set, turns on admission control for
	// queries served through Serve: bounded in-flight load with
	// priority-classed shedding, and per-query row/byte budgets enforced
	// at plan time. Execute/ExecuteBatch bypass admission (internal and
	// maintenance callers must not be shed); route client traffic through
	// Serve.
	Admission AdmissionConfig
}

// AdmissionConfig bounds what the Executor accepts through Serve.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently served queries. When the cap is hit,
	// Serve sheds instead of queueing — under overload an unbounded queue
	// only converts shed requests into slow ones, and every admitted
	// query's latency degrades with queue depth. Priority classes reserve
	// headroom: batch traffic sheds at half the cap, normal traffic at
	// 7/8 of it, interactive traffic only at the full cap — so a burst of
	// background work cannot starve interactive queries. 0 disables the
	// in-flight cap.
	MaxInFlight int
	// MaxRows, when > 0, rejects (before executing) any query whose
	// plan-time cost estimate — Grid Tree routing plus each region grid's
	// physical range plan, no scanning — exceeds this many rows.
	MaxRows uint64
	// MaxBytes, when > 0, is the same budget in estimated bytes touched.
	MaxBytes uint64
}

func (a AdmissionConfig) enabled() bool {
	return a.MaxInFlight > 0 || a.MaxRows > 0 || a.MaxBytes > 0
}

// Priority classes order queries for admission under load. The zero
// value is PriorityNormal, so plain callers need no annotation.
type Priority uint8

const (
	// PriorityNormal is regular client traffic; it sheds when in-flight
	// load passes 7/8 of MaxInFlight.
	PriorityNormal Priority = iota
	// PriorityBatch is background/bulk traffic; it sheds first, at half
	// of MaxInFlight, keeping headroom for the classes above.
	PriorityBatch
	// PriorityInteractive is latency-critical traffic; it sheds only at
	// the full MaxInFlight cap.
	PriorityInteractive
)

func (p Priority) String() string {
	switch p {
	case PriorityBatch:
		return "batch"
	case PriorityInteractive:
		return "interactive"
	default:
		return "normal"
	}
}

// ErrShed reports a query rejected by load-shedding: in-flight load had
// reached the query's priority-class watermark. The caller may retry
// with backoff; the result was never computed.
var ErrShed = errors.New("tsunami: query shed (serving at capacity)")

// ErrOverBudget reports a query rejected at plan time: its estimated
// scan cost exceeded the configured per-query row or byte budget. Wrapped
// errors carry the estimate; match with errors.Is.
var ErrOverBudget = errors.New("tsunami: query over plan-time budget")

// ErrClosed reports a query served after the Executor was closed; the
// result was never computed.
var ErrClosed = errors.New("tsunami: executor is closed")

// admission is the Executor's load-shedding state: one atomic in-flight
// counter checked against per-priority watermarks, plus the plan-time
// budgets.
type admission struct {
	maxInFlight int64
	maxRows     uint64
	maxBytes    uint64
	inFlight    atomic.Int64
}

// limit is the in-flight watermark for a priority class (see
// AdmissionConfig.MaxInFlight); 0 means no cap.
func (a *admission) limit(pri Priority) int64 {
	m := a.maxInFlight
	if m <= 0 {
		return 0
	}
	var l int64
	switch pri {
	case PriorityBatch:
		l = m / 2
	case PriorityInteractive:
		l = m
	default:
		l = m - m/8
	}
	if l < 1 {
		l = 1
	}
	return l
}

// admit checks a plan's price against the row and byte budgets.
func (a *admission) admit(rows, bytes uint64) error {
	if a.maxRows > 0 && rows > a.maxRows {
		return fmt.Errorf("%w: plan estimates %d rows scanned, budget %d", ErrOverBudget, rows, a.maxRows)
	}
	if a.maxBytes > 0 && bytes > a.maxBytes {
		return fmt.Errorf("%w: plan estimates %d bytes touched, budget %d", ErrOverBudget, bytes, a.maxBytes)
	}
	return nil
}

// execMetrics caches the Executor's resolved instruments so the record
// path never touches the registry.
type execMetrics struct {
	queueWait *obs.Histogram
	// Admission counters are registered eagerly (they appear on /statsz
	// at 0 even before admission control sees traffic, or when it is
	// disabled) so dashboards and smoke tests can rely on the fields.
	admAdmitted *obs.Counter
	admShed     *obs.Counter
	admBudget   *obs.Counter
}

// newExecMetrics resolves e's instruments, and registers the queue-depth
// gauge over e's job queue and the in-flight gauge over its admission
// counter (reading 0 when admission control is off). Like every
// GaugeFunc they report one source: the last Executor opened on the
// registry.
func newExecMetrics(r *obs.Registry, e *Executor) *execMetrics {
	if r == nil {
		return nil
	}
	r.GaugeFunc(obs.MExecQueueDepth, func() float64 { return float64(len(e.jobs)) })
	r.GaugeFunc(obs.MAdmissionInFlight, func() float64 {
		if e.adm == nil {
			return 0
		}
		return float64(e.adm.inFlight.Load())
	})
	return &execMetrics{
		queueWait:   r.DurationHistogram(obs.MExecQueueWait),
		admAdmitted: r.Counter(obs.MAdmissionAdmitted),
		admShed:     r.Counter(obs.MAdmissionShed),
		admBudget:   r.Counter(obs.MAdmissionBudget),
	}
}

// Executor serves queries against one shared index from a fixed pool of
// workers. It relies on the Index concurrency contract — built indexes are
// immutable on the read path — so no cloning happens anywhere; every worker
// executes against the same index value. A LiveStore or ShardedStore is
// such a value: it resolves its current epoch(s) per query itself, so
// epoch swaps are picked up mid-batch.
//
// An Executor is safe for concurrent use: ExecuteBatch may be called from
// many goroutines at once and the pool fair-shares across them. Close
// releases the workers. Execute and ExecuteBatch after Close are no-ops
// returning zero Results; Serve returns ErrClosed.
type Executor struct {
	idx     Index
	workers int
	metrics *execMetrics // nil when instrumentation is off
	adm     *admission   // nil when admission control is off

	// jobs carries ExecuteBatch's queries, one closure each.
	jobs chan func()
	wg   sync.WaitGroup

	// mu guards sends against Close: senders hold it shared, Close holds
	// it exclusively while marking closed and closing jobs, so a send on
	// the closed channel can never happen. Execute and Serve only load
	// closed: they send nothing.
	mu     sync.RWMutex
	closed atomic.Bool
}

// NewExecutor starts a worker pool over a shared index.
func NewExecutor(idx Index, o ExecutorOptions) *Executor {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := &Executor{
		idx:     idx,
		workers: workers,
		jobs:    make(chan func(), 2*workers),
	}
	if o.Admission.enabled() {
		e.adm = &admission{
			maxInFlight: int64(o.Admission.MaxInFlight),
			maxRows:     o.Admission.MaxRows,
			maxBytes:    o.Admission.MaxBytes,
		}
	}
	e.metrics = newExecMetrics(o.Metrics, e)
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// NewExecutorSource is NewExecutor; the stores are Indexes, so the name
// adds nothing and is kept for callers that have it.
func NewExecutorSource(idx Index, o ExecutorOptions) *Executor { return NewExecutor(idx, o) }

func (e *Executor) worker() {
	defer e.wg.Done()
	for task := range e.jobs {
		task()
	}
}

// trySubmit schedules a task on the pool, or reports false after Close.
func (e *Executor) trySubmit(task func()) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		return false
	}
	e.jobs <- task
	return true
}

// Workers returns the pool size.
func (e *Executor) Workers() int { return e.workers }

// Execute answers one query, flat or grouped (built with CountBy, SumBy
// or Query.By), on the calling goroutine: the pool is for batches. After
// Close it returns a zero Result.
func (e *Executor) Execute(q Query) Result {
	if e.closed.Load() {
		return Result{}
	}
	return e.idx.Plan(q, index.Exec{}).Execute()
}

// Serve answers one query under admission control. The query is planned
// once, and that plan is what admission prices and what executes. Its
// plan-time row/byte cost is checked against the budgets first (nothing
// is scanned for a rejected query; a grouped query's group-key column is
// charged as one extra stream, and an answer the result cache holds is
// free), then the in-flight watermark for the query's priority class — at
// capacity the query is shed immediately rather than queued, so admitted
// queries keep bounded latency while overload turns into fast ErrShed
// returns the client can retry with backoff. A refused query's plan is
// released: it leaves no trace in the stores below, and only the
// registry counts it (tsunami_admission_*). Without an Admission
// configuration Serve is Execute. After Close it returns ErrClosed.
//
// Serve reads no clock: the index times the query, from its plan to its
// answer, so the time spent in admission is in the recorded latency.
func (e *Executor) Serve(q Query, pri Priority) (Result, error) {
	if e.closed.Load() {
		return Result{}, ErrClosed
	}
	a, m := e.adm, e.metrics
	p := e.idx.Plan(q, index.Exec{})
	if a == nil {
		return p.Execute(), nil
	}
	rows, bytes := p.Cost()
	if err := a.admit(rows, bytes); err != nil {
		p.Release()
		if m != nil {
			m.admBudget.Inc()
		}
		return Result{}, err
	}
	if lim := a.limit(pri); lim > 0 {
		if n := a.inFlight.Add(1); n > lim {
			a.inFlight.Add(-1)
			p.Release()
			if m != nil {
				m.admShed.Inc()
			}
			return Result{}, fmt.Errorf("%w: %d %s-priority queries in flight (limit %d)", ErrShed, n-1, pri, lim)
		}
		defer a.inFlight.Add(-1)
		// Yield once between admission and execution, for a plan that
		// scans. A burst of arrivals all reach the in-flight counter before
		// any of them starts scanning, so the watermark sees the burst's
		// true concurrency; without this, on a single P, back-to-back
		// sub-quantum queries serialize and the cap can never engage. A
		// plan priced at nothing — an answer the result cache holds — has
		// no scan to hold its slot through, and yielding would cost it the
		// scheduler's global run-queue lock; it keeps its slot all the
		// same, so shedding counts it.
		if rows > 0 {
			runtime.Gosched()
		}
	}
	if m != nil {
		m.admAdmitted.Inc()
	}
	return p.Execute(), nil
}

// ExecuteBatch answers every query — flat and grouped may mix — fanning
// them across the worker pool, and returns results positionally aligned
// with qs. Results are identical
// to calling Execute sequentially on each query. Batches larger than
// 8*Workers are processed in waves of that size so the amount of
// in-flight work (and the cache footprint of its result writes) stays
// proportional to the pool, not the batch. After Close it returns zero
// Results for every query.
func (e *Executor) ExecuteBatch(qs []Query) []Result {
	wave := 8 * e.workers
	out := make([]Result, len(qs))
	for start := 0; start < len(qs); start += wave {
		end := min(start+wave, len(qs))
		if !e.runWave(qs[start:end], out[start:end]) {
			break // closed: remaining results stay zero
		}
	}
	return out
}

// runWave fans one wave across the pool and waits for it. It reports
// false if the Executor was closed before the whole wave was scheduled
// (results for unscheduled queries stay zero).
func (e *Executor) runWave(qs []Query, out []Result) bool {
	var asked time.Duration
	if e.metrics != nil {
		asked = obs.Mono()
	}
	var done sync.WaitGroup
	ok := true
	for i, q := range qs {
		done.Add(1)
		if !e.trySubmit(func() {
			out[i] = e.runQueued(q, asked)
			done.Done()
		}) {
			done.Done() // never scheduled
			ok = false
			break
		}
	}
	done.Wait()
	return ok
}

// timed is how a store's plan reports its timing: the obs.Mono reading
// it was planned at, or 0 when the store times nothing.
type timed interface{ Began() time.Duration }

// runQueued answers q on a worker and records how long it waited since
// its wave was asked for (asked). The wait ends where the query's
// latency starts: at the plan's own clock read when the index times its
// queries, so one read serves both.
func (e *Executor) runQueued(q Query, asked time.Duration) Result {
	p := e.idx.Plan(q, index.Exec{})
	if m := e.metrics; m != nil {
		var start time.Duration
		if t, ok := p.(timed); ok {
			start = t.Began()
		}
		if start == 0 {
			start = obs.Mono()
		}
		m.queueWait.RecordDuration(start - asked)
	}
	return p.Execute()
}

// Close shuts the pool down and waits for in-flight queries to finish.
// Safe to call from multiple goroutines; every call blocks until the
// workers have drained. Execute/ExecuteBatch afterwards are no-ops.
func (e *Executor) Close() {
	e.mu.Lock()
	if !e.closed.Load() {
		e.closed.Store(true)
		close(e.jobs)
	}
	e.mu.Unlock()
	e.wg.Wait()
}
