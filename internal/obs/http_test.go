package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerEndpoints exercises the HTTP surface end to end: /metrics
// serves parseable exposition, /statsz serves the JSON reduction,
// /debug/pprof/ answers, and unknown paths 404.
func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter(MQueries).Add(7)
	r.Gauge(MExecQueueDepth).Set(2)
	r.DurationHistogram(MQueryLatency).RecordDuration(3 * time.Millisecond)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics", http.StatusOK)
	for _, want := range []string{
		"# TYPE tsunami_queries_total counter",
		"tsunami_queries_total 7",
		"# TYPE tsunami_exec_queue_depth gauge",
		"# TYPE tsunami_query_latency_seconds histogram",
		`tsunami_query_latency_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	var sz Statsz
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/statsz", http.StatusOK)), &sz); err != nil {
		t.Fatalf("/statsz not JSON: %v", err)
	}
	if sz.Counters[MQueries] != 7 {
		t.Fatalf("/statsz queries %d want 7", sz.Counters[MQueries])
	}
	if h := sz.Histograms[MQueryLatency]; h.Count != 1 || h.P99 < 0.003 {
		t.Fatalf("/statsz latency histogram wrong: %+v", h)
	}

	if !strings.Contains(get(t, srv.URL+"/debug/pprof/", http.StatusOK), "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
	get(t, srv.URL+"/nope", http.StatusNotFound)
}

func get(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d want %d", url, resp.StatusCode, wantStatus)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}

// TestTraceString checks the explain-analyze rendering carries stages,
// shard spans, region spans, and volume, and the EXPLAIN rendering the
// region spans.
func TestTraceString(t *testing.T) {
	tr := &QueryTrace{
		Query: "count [0,10)x[2,5)",
		Total: 5 * time.Millisecond,
		Rows:  1234, Bytes: 9872,
		Regions: []RegionSpan{{Shard: 1, Region: 0, Rows: 900, GridCells: 64, Ranges: 5, Scanned: 600, Matched: 17}, {Shard: 2, Region: 4, Rows: 700, Ranges: 1, Scanned: 634, Matched: 9}},
	}
	tr.AddStage("plan", time.Millisecond, "")
	tr.AddStage("scan", 4*time.Millisecond, "3 regions")
	tr.Shards = append(tr.Shards, ShardSpan{Shard: 1, Duration: 2 * time.Millisecond, Rows: 600, Bytes: 4800})
	s := tr.String()
	for _, want := range []string{"count [0,10)x[2,5)", "plan", "scan", "3 regions", "shard 1", "rows scanned 1234", "bytes touched 9872", "regions 2)", "bytes 4800  regions 1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace rendering missing %q:\n%s", want, s)
		}
	}
	e := tr.Explain()
	for _, want := range []string{"regions visited: 2", "shard 1 region 0", "grid(64 cells)", "scanned=600", "matched=17", "shard 2 region 4", "scan "} {
		if !strings.Contains(e, want) {
			t.Fatalf("explain rendering missing %q:\n%s", want, e)
		}
	}
}
