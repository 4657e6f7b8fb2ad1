package colstore

import "testing"

// BenchmarkScanGrouped measures single-thread throughput of the grouped
// scan on the dispatched kernels over the GroupedBench shapes, with one
// accumulator Reset per pass the way a pooled query context runs it. CI
// gates the kernel-vs-scalar speedup within one run (benchgate
// 'BenchmarkScanGroupedScalar/BenchmarkScanGrouped>=1.5'), which is
// immune to runner-hardware variance.
func BenchmarkScanGrouped(b *testing.B) {
	s, shapes := GroupedBench(1<<18, 7)
	for _, sh := range shapes {
		b.Run(sh.Name, func(b *testing.B) {
			b.SetBytes(int64(sh.Rows()) * 8)
			var acc GroupAccumulator
			var res GroupedResult
			for i := 0; i < b.N; i++ {
				acc.Reset(sh.Query, s)
				for _, r := range sh.Ranges {
					s.ScanRangeGrouped(sh.Query, r[0], r[1], false, &acc)
				}
				res = acc.Result()
			}
			if len(res.Groups) == 0 {
				b.Fatal("benchmark query produced no groups")
			}
		})
	}
}

// BenchmarkScanGroupedScalar is the row-at-a-time grouped oracle on the
// same shapes — the scalar side of the CI speedup gate.
func BenchmarkScanGroupedScalar(b *testing.B) {
	s, shapes := GroupedBench(1<<18, 7)
	for _, sh := range shapes {
		b.Run(sh.Name, func(b *testing.B) {
			b.SetBytes(int64(sh.Rows()) * 8)
			var res GroupedResult
			for i := 0; i < b.N; i++ {
				res = GroupedResult{}
				for _, r := range sh.Ranges {
					s.ScanRangeGroupedScalar(sh.Query, r[0], r[1], false, &res)
				}
			}
			if len(res.Groups) == 0 {
				b.Fatal("benchmark query produced no groups")
			}
		})
	}
}
