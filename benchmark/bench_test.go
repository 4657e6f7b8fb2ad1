package main

import (
	"fmt"
	"regexp"
	"testing"
)

// small is a run of the shrunk workload over a window of a tenth of a second.
func small(sp spec, seed int64, trace bool) config {
	return config{sp: sp.shrunk(), seed: seed, seconds: 0.1, trace: trace}
}

// runs holds one result per (workload, trace, repetition), shared by the
// tests: seed 5 throughout.
var runs = map[string]*result{}

func runOnce(t *testing.T, sp spec, trace bool, rep int) *result {
	t.Helper()
	key := fmt.Sprint(sp.name, trace, rep)
	if res, ok := runs[key]; ok {
		return res
	}
	cfg := small(sp, 5, trace)
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	if !res.Correct {
		t.Fatalf("%s: %d of %d operations failed: %s", sp.name, res.Failed, res.Attempted, res.firstErr)
	}
	runs[key] = res
	return res
}

// The same seed must feed the program the same bytes and reproduce every
// exact count; another seed must not.
func TestSameSeedSameInputsAndCounts(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, b := runOnce(t, sp, false, 0), runOnce(t, sp, false, 1)
			if a.env.InputHash != b.env.InputHash {
				t.Errorf("input hash differs between two runs of seed 5: %s vs %s", a.env.InputHash, b.env.InputHash)
			}
			if x, y := a.Metrics["index_bytes"].Value, b.Metrics["index_bytes"].Value; x != y || x == 0 {
				t.Errorf("index_bytes = %v and %v, want equal and non-zero", x, y)
			}
			shrunk := small(sp, 0, false).sp
			if h5, h6 := makeInputs(shrunk, 5).hash(nil), makeInputs(shrunk, 6).hash(nil); h5 == h6 {
				t.Errorf("seeds 5 and 6 generated the same queries and sequences (%016x)", h5)
			}
			ta, tb := runOnce(t, sp, true, 0), runOnce(t, sp, true, 1)
			for _, name := range []string{"colstore.points_scanned_per_query", "gridtree.regions_visited_per_query", "flood.points_scanned_per_query"} {
				if x, y := ta.Metrics[name].Value, tb.Metrics[name].Value; x != y || x == 0 {
					t.Errorf("%s = %v and %v, want equal and non-zero", name, x, y)
				}
			}
		})
	}
}

// BENCHMARK.json and the program must declare the same workloads and
// metrics, and a run must emit exactly the declared set for its mode.
func TestEmittedNamesMatchManifest(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", mf.RunSeconds, defaultSeconds)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(mf.Workloads), len(specs))
	}
	for i, w := range mf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, specs[i].name)
		}
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(kind string, decls []metricDecl, n int, at func(int) (string, string)) {
		if n != len(decls) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, n, len(decls))
			return
		}
		for i, d := range decls {
			name, unit := at(i)
			if name != d.name || unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, name, unit, d.name, d.unit)
			}
			if !valid.MatchString(d.name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, d.name)
			}
		}
	}
	declared("end_to_end", endToEnd, len(mf.EndToEnd), func(i int) (string, string) { return mf.EndToEnd[i].Name, mf.EndToEnd[i].Unit })
	declared("per_layer", perLayer, len(mf.PerLayer), func(i int) (string, string) { return mf.PerLayer[i].Name, mf.PerLayer[i].Unit })

	nonZero := map[string]bool{}
	for _, sp := range specs {
		for _, mode := range []struct {
			trace bool
			decls []metricDecl
		}{{false, endToEnd}, {true, perLayer}} {
			res := runOnce(t, sp, mode.trace, 0)
			if len(res.Metrics) != len(mode.decls) {
				t.Errorf("%s trace=%v emitted %d metrics, want the %d declared", sp.name, mode.trace, len(res.Metrics), len(mode.decls))
			}
			for _, d := range mode.decls {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: %s missing or in unit %q, want %q", sp.name, mode.trace, d.name, m.Unit, d.unit)
				}
				if m.Value != 0 {
					nonZero[d.name] = true
				}
				if !mode.trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive on every workload", sp.name, d.name, m.Value)
				}
			}
		}
	}
	// A layer metric may be 0 where the workload bypasses the layer, and the
	// merge and refusal counters need a longer or heavier stream than the
	// test's; everything else must be measured by at least one workload.
	quiet := map[string]bool{"executor.shed": true, "executor.over_budget": true, "live.merges": true, "live.merge_s_total": true, "qcache.evictions": true, "core.allocs_per_query": true}
	for _, d := range perLayer {
		if !nonZero[d.name] && !quiet[d.name] {
			t.Errorf("per-layer metric %s was 0 on every workload", d.name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestRefusesMoreLoadThanCPUs(t *testing.T) {
	sp := specs[0]
	sp.clients = 1 << 20
	if _, err := run(small(sp, 1, false)); err == nil {
		t.Error("run accepted more clients than CPUs")
	}
}
