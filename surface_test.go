package tsunami_test

import (
	"reflect"
	"regexp"
	"slices"
	"testing"

	tsunami "repro"
	"repro/internal/auggrid"
	"repro/internal/core"
	"repro/internal/gridtree"
)

// TestQuerySurface keeps the query entry points from silently regrowing
// into a method-name matrix: how a query runs (inline or traced) and
// what it computes (flat, grouped) are arguments of
// ExecuteWith and of the query itself, not new method names. A change to
// this list is a change to the public surface and should look like one.
func TestQuerySurface(t *testing.T) {
	entry := regexp.MustCompile(`^(Execute|Serve)`)
	perLayer := []string{"Execute", "ExecuteGrouped", "ExecuteWith"}
	for _, c := range []struct {
		typ  any
		want []string
	}{
		{(*tsunami.TsunamiIndex)(nil), perLayer},
		{(*tsunami.LiveStore)(nil), perLayer},
		{(*tsunami.ShardedStore)(nil), perLayer},
		{(*tsunami.Executor)(nil), []string{"Execute", "ExecuteBatch", "Serve", "ServeGrouped"}},
	} {
		typ := reflect.TypeOf(c.typ)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; entry.MatchString(name) {
				got = append(got, name)
			}
		}
		if !slices.Equal(got, c.want) { // reflect lists methods sorted by name
			t.Errorf("%v has query entry points %v, the committed list is %v", typ, got, c.want)
		}
	}
}

// TestExecutionKnobs pins every settable field that changes how a query
// executes or a store is served. Each field is an option a caller can
// set, so one that returns (a fan-out switch, a partial-merge threshold)
// has to change this list to do it.
func TestExecutionKnobs(t *testing.T) {
	for _, c := range []struct {
		typ  any
		want []string
	}{
		{tsunami.Exec{}, []string{"Trace"}},
		{tsunami.ExecutorOptions{}, []string{"Workers", "Metrics", "Admission"}},
		{tsunami.LiveOptions{}, []string{"MergeThreshold", "DisableShift", "SnapshotInterval", "SnapshotPath",
			"OnEvent", "Metrics", "Workload", "CacheEntries"}},
		{tsunami.ShardedOptions{}, []string{"Shards", "Dim", "Learned", "Live", "SnapshotDir", "Rebalance",
			"OnEvent", "Metrics", "Workload", "CacheEntries"}},
		{tsunami.WorkloadOptions{}, []string{"Objectives"}},
		{tsunami.RebalanceOptions{}, []string{"CheckInterval", "MaxSkew"}},
	} {
		checkFields(t, c.typ, c.want)
	}
}

// TestBuildKnobs is TestExecutionKnobs for the build: the settings a caller
// can give an index build. The Grid Tree's other §4.3 thresholds, the
// baselines' recursion guards and one seed for the whole optimizer are
// constants, so a field coming back changes this list.
func TestBuildKnobs(t *testing.T) {
	for _, c := range []struct {
		typ  any
		want []string
	}{
		{tsunami.Options{}, []string{"OptimizerIters", "SampleSize", "MaxOptQueries", "Seed"}},
		{core.Config{}, []string{"Variant", "GridTree", "Grid", "Optimizer", "MinRowsForGrid", "Parallelism"}},
		{gridtree.Config{}, []string{"MergeEps", "MinPointsFloor"}},
		{auggrid.OptimizeConfig{}, []string{"Eval", "MaxCells", "MaxIters", "NoSortDim", "FMErrFrac",
			"CCDFEmptyFrac", "OutlierFrac", "Seed"}},
		{auggrid.EvalConfig{}, []string{"SampleSize", "MaxQueries"}},
	} {
		checkFields(t, c.typ, c.want)
	}
}

// checkFields fails t unless the struct v has exactly the fields want, in
// order.
func checkFields(t *testing.T, v any, want []string) {
	t.Helper()
	typ := reflect.TypeOf(v)
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%v has fields %v, the committed list is %v", typ, got, want)
	}
}

// TestMaintenanceSurface keeps a built index write-free: the methods that
// change what an index holds are the committed list, each deriving a
// successor and leaving the receiver serving, and every other exported
// method is a committed read. An in-place twin (a MergeDeltas beside
// MergedCopy) fits neither list and fails here.
func TestMaintenanceSurface(t *testing.T) {
	maintenance := []string{"CopyWithInserts", "MergedCopy", "MergedCopyReusing", "Reoptimize", "ReoptimizeRegionsCopy", "SplitRange"}
	reads := []string{"BufferedRows", "BuildStats", "DebugRegions", "EstimateCost", "Execute", "ExecuteGrouped", "ExecuteWith",
		"IndexStats", "Name", "NumBuffered", "Plan", "RegionsVisited", "Save", "SizeBytes", "Store"}
	typ := reflect.TypeOf((*tsunami.TsunamiIndex)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		derives := m.Type.NumOut() > 0 && m.Type.Out(0) == typ
		if derives != slices.Contains(maintenance, m.Name) {
			t.Errorf("%s: returns a successor index = %v, which is not what the committed lists say", m.Name, derives)
		}
		if !slices.Contains(reads, m.Name) {
			got = append(got, m.Name)
		}
	}
	if !slices.Equal(got, maintenance) { // reflect lists methods sorted by name
		t.Errorf("%v derives an index through %v, the committed list is %v", typ, got, maintenance)
	}
}
