// Command benchmark is this repository's benchmark: it builds one workload's
// inputs from -seed, checks every answer, measures for -seconds, and prints
// every metric by name with its unit. The last line of standard output is the
// result object; see README.md for the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	var (
		workload  = flag.String("workload", "", "workload to run: taxi_fig7, tpch_adhoc_scan, taxi_serve_zipf or taxi_live_mixed")
		seed      = flag.Int64("seed", 1, "draws the held-out test queries, the zipf ranks and the inserted rows")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run two alternating sets of five runs per workload and compare them against the bounds in BENCHMARK.json")
		outDir    = flag.String("out", filepath.Join(".bench_build", "out"), "directory for result, environment and span files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *selfcheck {
		return selfCheck(*workload, *seconds)
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := run(config{sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", sp.name, *seed, *trace))
	if err := res.writeFiles(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res.print(dir)
	if !res.Correct {
		return 1
	}
	return 0
}

// fileResult is result.json: the driver's line plus the environment.
type fileResult struct {
	*result
	Env *envInfo `json:"env"`
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (res *result) writeFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), fileResult{res, res.env}); err != nil {
		return err
	}
	if res.env.Trace {
		return writeJSON(filepath.Join(dir, "spans.json"), res.spans)
	}
	return nil
}

// print writes the human-readable table, the environment, and last the one
// line the driver parses.
func (res *result) print(dir string) {
	e := res.env
	fmt.Printf("workload %s seed %d trace %v window %gs (+%gs warm-up)  wall %.1fs\n", e.Workload, e.Seed, e.Trace, e.Seconds, e.WarmupS, e.WallS)
	fmt.Printf("nproc %d GOMAXPROCS %d %s kernel %s  rows %d table %d bytes, %s\n", e.Nproc, e.Gomaxprocs, e.GoVersion, e.Kernel, e.Rows, e.TableBytes, e.Residency)
	fmt.Println("results from a different nproc, kernel tier, row count or window are not comparable with these")
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if res.firstErr != "" {
		fmt.Println("first failure:", res.firstErr)
	}
	fmt.Println("files:", dir)
	if b, err := json.Marshal(e); err == nil {
		fmt.Printf("env %s\n", b)
	}
	b, _ := json.Marshal(res) // a struct of numbers, strings and a map: cannot fail
	fmt.Println(string(b))
}
