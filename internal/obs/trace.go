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
	// Regions is one span per index region the planner routed the query
	// to, in execution order (every shard's, for a sharded trace): the
	// EXPLAIN of the query, recorded by the execution that answered it.
	Regions []RegionSpan
}

// RegionSpan is one index region's share of a traced query.
type RegionSpan struct {
	// Shard is the shard the region belongs to (0 outside a sharded
	// store), Region its id in that shard's index.
	Shard, Region int
	// Rows is the region's clustered row count; GridCells its grid's
	// cell count, 0 for a region without a grid (scanned whole).
	Rows, GridCells int
	// Ranges is how many physical ranges the plan scans in the region.
	Ranges int
	// Scanned and Matched are the rows the region's ranges and buffered
	// inserts scanned and matched; summed over the spans they are the
	// answer's PointsScanned and Count.
	Scanned, Matched uint64
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
		fmtDur(t.Total), t.Rows, t.Bytes, len(t.Regions))
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
		regions := 0
		for _, r := range t.Regions {
			if r.Shard == sh.Shard {
				regions++
			}
		}
		fmt.Fprintf(&b, "  shard %-3d %10s  rows %d  bytes %d  regions %d\n",
			sh.Shard, fmtDur(sh.Duration), sh.Rows, sh.Bytes, regions)
	}
	return b.String()
}

// Explain renders the trace's region spans, one line per routed region:
// the EXPLAIN of the query.
func (t *QueryTrace) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Query)
	fmt.Fprintf(&b, "regions visited: %d\n", len(t.Regions))
	for _, r := range t.Regions {
		kind := "scan"
		if r.GridCells > 0 {
			kind = fmt.Sprintf("grid(%d cells)", r.GridCells)
		}
		shard := ""
		if len(t.Shards) > 0 {
			shard = fmt.Sprintf("shard %d ", r.Shard)
		}
		fmt.Fprintf(&b, "  %sregion %-3d %-16s rows=%-8d ranges=%-4d scanned=%-8d matched=%d\n",
			shard, r.Region, kind, r.Rows, r.Ranges, r.Scanned, r.Matched)
	}
	return b.String()
}

// fmtDur prints a duration with microsecond resolution — traced stages
// are often sub-millisecond and default formatting drowns them in digits.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
