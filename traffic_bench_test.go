// BenchmarkTraffic is CI's serving-discipline gate: it runs the bench
// package's heavy-traffic experiment (zipfian stream against the
// epoch-keyed result cache, then an open-loop burst at 2x capacity with
// and without admission control) and reports its headline figures as
// custom benchmark metrics benchgate can gate on:
//
//	go test -run '^$' -bench BenchmarkTraffic -benchtime 1x . | \
//	    go run ./cmd/benchgate 'hit-pct>=50' 'cache-speedup-x>=5' \
//	        'shed-pct>=10' 'shed-p99-x<=10'
//
// The thresholds in CI are deliberately loose versions of the claims the
// experiment makes (a ~90% hit rate, a >=10x cached speedup, most of a
// 2x-overload burst shed, admitted p99 a small multiple of unloaded):
// the gate exists to catch the discipline breaking — the cache missing
// its own hot key, shedding never engaging, admitted latency tracking
// the unshedded backlog — not to pin exact figures on shared runners.
package tsunami_test

import (
	"testing"

	"repro/internal/bench"
)

func BenchmarkTraffic(b *testing.B) {
	var last *bench.TrafficResult
	for i := 0; i < b.N; i++ {
		r, err := bench.RunTraffic(bench.Options{Quick: true, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.HitRatePct, "hit-pct")
	b.ReportMetric(last.CacheSpeedupX, "cache-speedup-x")
	b.ReportMetric(last.ShedPct, "shed-pct")
	b.ReportMetric(last.ShedP99X, "shed-p99-x")
	b.ReportMetric(last.UnsheddedP99X, "unshedded-p99-x")
}
