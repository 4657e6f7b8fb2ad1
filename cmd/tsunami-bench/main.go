// Command tsunami-bench regenerates the tables and figures of the Tsunami
// paper's evaluation (§6) on generated datasets, plus the two serving
// experiments the repository benchmark (benchmark/, BENCHMARK.json) does
// not cover yet: online rebalancing and the open-loop overload burst.
//
// Usage:
//
//	tsunami-bench -experiment fig7 -rows 200000
//	tsunami-bench -experiment rebalance,traffic -quick
//	tsunami-bench -experiment all -quick
//
// Experiments: tab3, tab4, fig7, fig8, fig9a, fig9b, fig10, fig11a,
// fig11b, fig12a, fig12b, ablation, rebalance, traffic, all. -experiment
// accepts a comma-separated list.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment ids ("+strings.Join(bench.IDs(), ", ")+")")
		rows       = flag.Int("rows", 0, "base dataset rows (default 200000; paper used 184M-300M)")
		perType    = flag.Int("queries-per-type", 0, "queries per query type (default 100, as in the paper)")
		seed       = flag.Int64("seed", 42, "generator seed")
		quick      = flag.Bool("quick", false, "small fast run for smoke testing")
	)
	flag.Parse()

	o := bench.Options{
		Rows:           *rows,
		QueriesPerType: *perType,
		Seed:           *seed,
		Quick:          *quick,
	}
	for _, id := range strings.Split(*experiment, ",") {
		if err := bench.Run(os.Stdout, strings.TrimSpace(id), o); err != nil {
			fmt.Fprintln(os.Stderr, "tsunami-bench:", err)
			os.Exit(2)
		}
	}
}
