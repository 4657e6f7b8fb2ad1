package bench

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

func tinyOptions() Options {
	return Options{Rows: 6000, QueriesPerType: 10, Seed: 5, Quick: true}
}

// kept is the committed experiment list, in the order "all" runs it, with
// the section header each prints first and the strings its output must
// carry. Adding, dropping or reordering an experiment means editing this
// table.
var kept = []struct {
	id, header string
	want       []string
}{
	{"tab3", "Tab 3", []string{"TPC-H", "Taxi", "Perfmon", "Stocks", "query types"}},
	{"tab4", "Tab 4", []string{"GT nodes", "avg CCDFs", "flood cells"}},
	{"fig7", "Fig 7", []string{"Tsunami", "Flood", "KDTree", "ZOrder", "Hyperoctree", "SingleDim", "speedup"}},
	{"fig8", "Fig 8", []string{"vs Tsunami", "Hyperoctree"}},
	{"fig9a", "Fig 9a", []string{"before shift", "stale layout", "after re-optimization", "re-optimization time"}},
	{"fig9b", "Fig 9b", []string{"sort (s)", "optimize (s)"}},
	{"fig10", "Fig 10", []string{"uncorrelated group", "correlated group"}},
	{"fig11a", "Fig 11a", []string{"rows", "KDTree"}},
	{"fig11b", "Fig 11b", []string{"selectivity", "%"}},
	{"fig12a", "Fig 12a", []string{"AugGrid-only", "GridTree-only", "speedup vs Flood"}},
	{"fig12b", "Fig 12b", []string{"AGD", "GD", "BlackBox", "AGD-NI", "cost-model error"}},
	{"ablation", "Ablation", []string{"no functional mappings"}},
	{"rebalance", "Rebalance", []string{"before skew", "during migration", "exact", "migrated", "post-rebalance spread"}},
	{"traffic", "Traffic", []string{"cache hit rate", "hot query", "admitted with shedding"}},
}

// headers lists the section headers in out, in order, after checking
// that the harness reported no self-check failure. Every experiment
// checks its own indexes against a full scan (rebalance: every
// mid-migration answer against fixed ground truth) and says so in its
// output: CORRECTNESS FAILURE, REBALANCE FAILURE, BUILD FAILURE,
// "FAILURE:", INCORRECT.
func headers(t *testing.T, out string) []string {
	t.Helper()
	for _, bad := range []string{"FAILURE", "INCORRECT"} {
		if strings.Contains(out, bad) {
			t.Fatalf("harness reported %s:\n%s", bad, out)
		}
	}
	var hs []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			h, _, _ := strings.Cut(rest, " — ")
			hs = append(hs, h)
		}
	}
	return hs
}

// TestExperiments runs every kept experiment by id at test scale, then
// "all", which must visit exactly the kept list in order, and the ids Run
// must refuse.
func TestExperiments(t *testing.T) {
	var all []string
	for _, e := range kept {
		all = append(all, e.header)
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, e.id, tinyOptions()); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if hs := headers(t, out); !slices.Equal(hs, []string{e.header}) {
				t.Errorf("%s printed sections %q, want only %q", e.id, hs, e.header)
			}
			for _, want := range e.want {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q:\n%s", e.id, want, out)
				}
			}
		})
	}
	t.Run("all", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode")
		}
		// Smaller than tinyOptions: only the visiting order is new here.
		var buf bytes.Buffer
		if err := Run(&buf, "all", Options{Rows: 1500, QueriesPerType: 3, Seed: 5, Quick: true}); err != nil {
			t.Fatal(err)
		}
		if hs := headers(t, buf.String()); !slices.Equal(hs, all) {
			t.Errorf("all visited %q, want %q", hs, all)
		}
	})
	for _, id := range []string{"scan", "groupby", "concurrency", "sharded", "obs", "fig99", ""} {
		if err := Run(io.Discard, id, tinyOptions()); err == nil {
			t.Errorf("Run accepted experiment id %q", id)
		}
	}
}

func TestPrintTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("a", "bbbb")
	tb.add("xxxxx", "y")
	tb.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header+sep+row, got %d lines", len(lines))
	}
	if len(lines[0]) == 0 || !strings.HasPrefix(lines[2], "xxxxx") {
		t.Errorf("unexpected table rendering:\n%s", buf.String())
	}
}

func TestHumanSizes(t *testing.T) {
	for _, tc := range []struct {
		in   uint64
		want string
	}{
		{512, "512B"},
		{2048, "2.0KiB"},
		{3 << 20, "3.0MiB"},
		{1 << 30, "1.0GiB"},
	} {
		if got := human(tc.in); got != tc.want {
			t.Errorf("human(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestThroughput(t *testing.T) {
	if q := throughput(1e6); q != 1000 {
		t.Errorf("throughput(1ms) = %f, want 1000", q)
	}
	if q := throughput(0); q != 0 {
		t.Errorf("throughput(0) = %f, want 0", q)
	}
}

// TestRunRejectsNegativeSizes: a negative row or query count is an error
// from Run, not a panic in a generator.
func TestRunRejectsNegativeSizes(t *testing.T) {
	for _, o := range []Options{{Rows: -5}, {QueriesPerType: -1}} {
		if err := Run(io.Discard, "fig7", o); err == nil {
			t.Errorf("Run with %+v: no error", o)
		}
	}
}

func TestOptionsFill(t *testing.T) {
	o := Options{}.fill()
	if o.Rows != 200_000 || o.QueriesPerType != 100 || o.Seed != 42 {
		t.Errorf("defaults wrong: %+v", o)
	}
	q := Options{Quick: true}.fill()
	if q.Rows != 30_000 || q.QueriesPerType != 40 {
		t.Errorf("quick defaults wrong: %+v", q)
	}
}
