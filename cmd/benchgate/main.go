// Command benchgate is CI's performance-floor check: it reads `go test
// -bench` output on stdin, echoes it, and checks the bounds given as
// arguments. Every bound compares readings taken within that one run, so
// none depends on the runner's hardware. Two forms:
//
//	'<unit><=N' or '<unit>>=N'
//	    a custom metric (b.ReportMetric) against a number. Every benchmark
//	    that reported the unit is checked, on the median of its -count
//	    repeats.
//	'BenchmarkA/BenchmarkB>=N' (or <=)
//	    the ns/op of family A over family B, paired by sub-benchmark name
//	    (BenchmarkA/x over BenchmarkB/x), each side the fastest of its
//	    repeats.
//
// A bound that matches no benchmark fails: a renamed or deleted benchmark
// must not pass CI silently. Exit status is 0 when every bound holds, 1
// when one fails, 2 for a malformed bound or unreadable input.
//
//	go test -run '^$' -bench BenchmarkObsOverhead -benchtime 1x . | \
//	    go run ./cmd/benchgate 'overhead-pct<=2'
//
//	go test -run '^$' -bench 'BenchmarkScan(Kernels|Scalar)' ./internal/colstore | \
//	    go run ./cmd/benchgate 'BenchmarkScanScalar/BenchmarkScanKernels>=1.5'
package main

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Stdin, os.Stdout, os.Args[1:])) }

// run gates the bench output on in against the bounds in args, writing
// the echoed input and one ok/FAIL line per reading to out, and returns
// the exit status.
func run(in io.Reader, out io.Writer, args []string) int {
	bounds := make([]bound, len(args))
	for i, arg := range args {
		b, err := parseBound(arg)
		if err != nil {
			fmt.Fprintln(out, "benchgate:", err)
			return 2
		}
		bounds[i] = b
	}
	if len(bounds) == 0 {
		fmt.Fprintln(out, "usage: go test -bench ... | benchgate '<unit><=N' 'BenchmarkA/BenchmarkB>=N' ...")
		return 2
	}
	r, err := parseBench(in, out)
	if err != nil {
		fmt.Fprintln(out, "benchgate:", err)
		return 2
	}
	status := 0
	for _, b := range bounds {
		if !b.check(r, out) {
			status = 1
		}
	}
	return status
}

// bound is one parsed argument: readings of what must stay at or above
// (min) or at or below limit. num and den are set for a ratio bound.
type bound struct {
	what     string // the argument's left-hand side, as given
	num, den string
	min      bool
	limit    float64
}

func parseBound(arg string) (bound, error) {
	i := strings.LastIndex(arg, "=") - 1
	if i < 1 || (arg[i] != '<' && arg[i] != '>') {
		return bound{}, fmt.Errorf("bound %q: want <unit><=N, <unit>>=N or BenchmarkA/BenchmarkB>=N", arg)
	}
	limit, err := strconv.ParseFloat(arg[i+2:], 64)
	if err != nil {
		return bound{}, fmt.Errorf("bound %q: %v", arg, err)
	}
	b := bound{what: arg[:i], min: arg[i] == '>', limit: limit}
	// Metric units never start with "Benchmark", so two family names
	// around a slash can only mean a ratio (units such as rows/sec stay
	// metrics).
	if num, den, ok := strings.Cut(b.what, "/"); ok && strings.HasPrefix(num, "Benchmark") && strings.HasPrefix(den, "Benchmark") {
		b.num, b.den = num, den
	}
	return b, nil
}

// check prints one line per reading the bound applies to and reports
// whether all of them hold; no reading at all is a failure.
func (b bound) check(r results, out io.Writer) bool {
	got := make(map[string]float64)
	if b.den != "" {
		for name, den := range r.ns {
			sub, ok := strings.CutPrefix(name, b.den)
			if !ok || (sub != "" && sub[0] != '/') {
				continue
			}
			if num, ok := r.ns[b.num+sub]; ok {
				got[name] = num / den
			}
		}
	} else {
		for name, vals := range r.metrics[b.what] {
			got[name] = median(vals)
		}
	}
	rel := "<="
	if b.min {
		rel = ">="
	}
	if len(got) == 0 {
		fmt.Fprintf(out, "FAIL     no benchmark in this run gives a %s reading (want %s %.2f)\n", b.what, rel, b.limit)
		return false
	}
	all := true
	for _, name := range slices.Sorted(maps.Keys(got)) {
		v, verdict := got[name], "ok  "
		// Stated as what passes, so a NaN reading fails either form.
		if pass := (b.min && v >= b.limit) || (!b.min && v <= b.limit); !pass {
			verdict, all = "FAIL", false
		}
		fmt.Fprintf(out, "%s     %-40s %.2f %s (want %s %.2f)\n", verdict, name, v, b.what, rel, b.limit)
	}
	return all
}

// median of a benchmark's readings; the input slice is reordered.
func median(vals []float64) float64 {
	slices.Sort(vals)
	n := len(vals)
	if n%2 == 0 {
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	return vals[n/2]
}

// results is one bench run: per benchmark the fastest ns/op of its
// repeats, and per custom-metric unit every value each benchmark
// reported, in input order.
type results struct {
	ns      map[string]float64
	metrics map[string]map[string][]float64
}

// parseBench reads "Benchmark<Name>[-P] <N> <value> <unit> ..." lines,
// echoing everything to out so the gate's input stays in the CI log.
// Names are keyed with the -<GOMAXPROCS> suffix stripped, and the "#01"
// suffix go test appends when one name runs several times. A line that
// does not parse is skipped: the bound it would have fed then fails for
// want of a reading.
func parseBench(in io.Reader, out io.Writer) (results, error) {
	r := results{ns: make(map[string]float64), metrics: make(map[string]map[string][]float64)}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fmt.Fprintln(out, sc.Text())
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := f[0]
		for _, sep := range []string{"-", "#"} {
			if cut := strings.LastIndex(name, sep); cut > 0 {
				if _, err := strconv.Atoi(name[cut+1:]); err == nil {
					name = name[:cut]
				}
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			unit := f[i+1]
			if unit == "ns/op" {
				if prev, ok := r.ns[name]; !ok || v < prev {
					r.ns[name] = v
				}
				continue
			}
			if r.metrics[unit] == nil {
				r.metrics[unit] = make(map[string][]float64)
			}
			r.metrics[unit][name] = append(r.metrics[unit][name], v)
		}
	}
	return r, sc.Err()
}
