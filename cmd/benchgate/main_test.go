package main

import (
	"strings"
	"testing"
)

// benchText is literal `go test -bench` output: three families with
// GOMAXPROCS suffixes, -count 3 repeats of the metric benchmarks (one of
// them under a "#01" name), a benchmark that printed into its own result
// line, and the trailer lines.
const benchText = `goos: linux
goarch: amd64
pkg: repro/internal/colstore
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScanKernels/count_1f-8         	    2000	    100000 ns/op	83886.08 MB/s
BenchmarkScanKernels/count_1f-8         	    2000	     50000 ns/op	167772.16 MB/s
BenchmarkScanKernels/count_2f-8         	    1000	    200000 ns/op	41943.04 MB/s
BenchmarkScanKernelsPortable/count_1f-8 	     500	    300000 ns/op
BenchmarkScanKernelsPortable/count_2f-8 	     500	    280000 ns/op
BenchmarkScanScalar/count_1f-8          	     100	   1000000 ns/op
BenchmarkScanScalar/count_1f-8          	     100	    900000 ns/op
BenchmarkScanScalar/count_2f-8          	     100	   2000000 ns/op
BenchmarkScanScalar/sum_9f-8            	     100	   2000000 ns/op
BenchmarkObsOverhead/exec-8             	       1	 377963629 ns/op	   1988112 instr-pass-ns	         2.500 overhead-pct
BenchmarkObsOverhead/exec-8             	       1	 377963629 ns/op	   1988112 instr-pass-ns	         1.500 overhead-pct
BenchmarkObsOverhead/exec#01-8          	       1	 377963629 ns/op	   1988112 instr-pass-ns	         9.000 overhead-pct
BenchmarkObsOverhead/batch-8            	       1	 240260073 ns/op	   1231651 instr-pass-ns	        -0.9985 overhead-pct
BenchmarkTraffic 	       1	1000438174 ns/op	       119.8 cache-speedup-x	        91.40 hit-pct
BenchmarkTab3Datasets-8   	
=== Tab 3 — Dataset and query characteristics ===
       1	 377963629 ns/op
PASS
ok  	repro/internal/colstore	12.3s
`

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds []string
		status int
		want   []string // substrings of the output
	}{
		{"metric median over repeats, #01 and -8 stripped",
			[]string{"overhead-pct<=2.5"}, 0,
			[]string{"ok       BenchmarkObsOverhead/exec ", " 2.50 overhead-pct (want <= 2.50)", "ok       BenchmarkObsOverhead/batch ", " -1.00 overhead-pct"}},
		{"every benchmark reporting the metric is checked",
			[]string{"overhead-pct<=2"}, 1,
			[]string{"FAIL     BenchmarkObsOverhead/exec ", "ok       BenchmarkObsOverhead/batch "}},
		{"floor holds, name without GOMAXPROCS suffix",
			[]string{"hit-pct>=50", "cache-speedup-x>=5"}, 0,
			[]string{"ok       BenchmarkTraffic ", " 91.40 hit-pct (want >= 50.00)", " 119.80 cache-speedup-x"}},
		{"floor broken",
			[]string{"hit-pct>=95"}, 1, []string{"FAIL     BenchmarkTraffic "}},
		{"one failing bound among passing ones fails the run",
			[]string{"cache-speedup-x>=5", "hit-pct>=95", "overhead-pct<=10"}, 1, nil},
		{"ratio: fastest of repeats, paired by sub-benchmark, unpaired shapes ignored",
			[]string{"BenchmarkScanScalar/BenchmarkScanKernels>=10"}, 0,
			[]string{"ok       BenchmarkScanKernels/count_1f ", " 18.00 BenchmarkScanScalar/BenchmarkScanKernels", "ok       BenchmarkScanKernels/count_2f ", " 10.00 "}},
		{"ratio: family is matched whole, not as a prefix",
			[]string{"BenchmarkScanKernelsPortable/BenchmarkScanKernels>=1.5"}, 1,
			[]string{"ok       BenchmarkScanKernels/count_1f ", " 6.00 ", "FAIL     BenchmarkScanKernels/count_2f ", " 1.40 "}},
		{"ratio ceiling",
			[]string{"BenchmarkScanKernels/BenchmarkScanScalar<=0.1"}, 0,
			[]string{"ok       BenchmarkScanScalar/count_1f ", " 0.06 "}},
		{"metric no benchmark reported", []string{"shed-pct>=10"}, 1, []string{"FAIL     no benchmark in this run gives a shed-pct reading"}},
		{"a slash in a unit is still a metric", []string{"rows/sec>=1"}, 1, []string{"gives a rows/sec reading"}},
		{"ratio with no pair", []string{"BenchmarkScanGroupedScalar/BenchmarkScanGrouped>=1.5"}, 1, []string{"FAIL     no benchmark"}},
		{"ratio whose pairs share no sub-benchmark", []string{"BenchmarkTraffic/BenchmarkScanKernels>=1"}, 1, []string{"FAIL     no benchmark"}},
		{"malformed: no comparison", []string{"overhead-pct"}, 2, []string{`bound "overhead-pct"`}},
		{"malformed: bare equals", []string{"overhead-pct=2"}, 2, nil},
		{"malformed: no left-hand side", []string{"<=2"}, 2, nil},
		{"malformed: limit not a number", []string{"hit-pct>=half"}, 2, nil},
		{"malformed bound beside a good one", []string{"hit-pct>=50", "-max-overhead"}, 2, nil},
		{"no bounds", nil, 2, []string{"usage:"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if got := run(strings.NewReader(benchText), &out, tc.bounds); got != tc.status {
				t.Errorf("exit status %d, want %d\n%s", got, tc.status, out.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
			if tc.status != 2 && !strings.Contains(out.String(), "=== Tab 3") {
				t.Error("input was not echoed")
			}
		})
	}
}

// TestGateEmptyInput: a gate fed nothing (the bench step crashed, the
// regexp matched no benchmark) fails every bound.
func TestGateEmptyInput(t *testing.T) {
	var out strings.Builder
	if got := run(strings.NewReader("PASS\n"), &out, []string{"overhead-pct<=2"}); got != 1 {
		t.Errorf("exit status %d, want 1\n%s", got, out.String())
	}
}
