package obs

import (
	"fmt"
	"strings"
	"time"
)

// QueryTrace is an opt-in, per-query execution trace: stage timings
// (plan/route/scan/merge...) plus per-shard breakdowns for scatter-gather
// queries. It is the explain-analyze counterpart to the aggregate
// histograms — the registry tells you p99 moved, a trace tells you which
// stage of which shard moved it. A trace is filled by the execution
// pipelines themselves (core, live, sharded ExecuteWith, when
// index.Exec.Trace is set) and rendered by String; it is not
// concurrency-safe and costs a few allocations, which is why it is
// opt-in rather than ambient.
type QueryTrace struct {
	// Query is the rendered query text the trace belongs to.
	Query string
	// Total is wall time from entry to result.
	Total time.Duration
	// Stages are the top-level phases in execution order.
	Stages []TraceStage
	// Shards is the per-shard breakdown (scatter-gather only).
	Shards []ShardSpan
	// Rows and Bytes are the scan volume behind the answer
	// (ScanResult.PointsScanned / ScanResult.BytesTouched).
	Rows  uint64
	Bytes uint64
	// Regions is how many index regions the planner routed the query to
	// (summed across shards for a sharded trace).
	Regions int
}

// TraceStage is one named phase of a traced query.
type TraceStage struct {
	Name     string
	Duration time.Duration
	// Detail is an optional human note ("3 of 4 shards pruned").
	Detail string
}

// ShardSpan is one shard's contribution to a scatter-gather query.
type ShardSpan struct {
	Shard    int
	Duration time.Duration
	Rows     uint64
	Bytes    uint64
	Regions  int
}

// AddStage appends a completed stage.
func (t *QueryTrace) AddStage(name string, d time.Duration, detail string) {
	t.Stages = append(t.Stages, TraceStage{Name: name, Duration: d, Detail: detail})
}

// Stage appends a stage that ran from since until now and returns now,
// the next stage's start: consecutive stages share their boundary clock
// read, so stage durations never sum past Total.
func (t *QueryTrace) Stage(name string, since time.Time, detail string) time.Time {
	now := time.Now()
	t.AddStage(name, now.Sub(since), detail)
	return now
}

// String renders the trace in an explain-analyze style block.
func (t *QueryTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %s\n", t.Query)
	fmt.Fprintf(&b, "total: %s  (rows scanned %d, bytes touched %d, regions %d)\n",
		fmtDur(t.Total), t.Rows, t.Bytes, t.Regions)
	for _, st := range t.Stages {
		pct := 0.0
		if t.Total > 0 {
			pct = 100 * float64(st.Duration) / float64(t.Total)
		}
		fmt.Fprintf(&b, "  %-8s %10s  %5.1f%%", st.Name, fmtDur(st.Duration), pct)
		if st.Detail != "" {
			fmt.Fprintf(&b, "  %s", st.Detail)
		}
		b.WriteByte('\n')
	}
	for _, sh := range t.Shards {
		fmt.Fprintf(&b, "  shard %-3d %10s  rows %d  bytes %d  regions %d\n",
			sh.Shard, fmtDur(sh.Duration), sh.Rows, sh.Bytes, sh.Regions)
	}
	return b.String()
}

// fmtDur prints a duration with microsecond resolution — traced stages
// are often sub-millisecond and default formatting drowns them in digits.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
