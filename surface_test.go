package tsunami_test

import (
	"reflect"
	"regexp"
	"slices"
	"testing"

	tsunami "repro"
)

// TestQuerySurface keeps the query entry points from silently regrowing
// into a method-name matrix: how a query runs (inline, fanned out,
// traced) and what it computes (flat, grouped) are arguments of
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
		{(*tsunami.Executor)(nil), []string{"Execute", "ExecuteBatch", "ExecuteGrouped", "Serve", "ServeGrouped"}},
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
