package auggrid

// ExecContext holds all per-query scratch a Grid needs to plan a query:
// the effective-filter bounds produced by functional-mapping transformation,
// the per-grid-dim partition ranges and indices used by cell enumeration,
// the per-base-partition tables of conditional dims the walk reads, and
// the run buffer runs are emitted into.
//
// A built Grid is immutable, so any number of goroutines may plan against
// the same Grid as long as each passes its own ExecContext. Contexts are
// plain reusable buffers: reusing one across sequential queries amortizes
// all per-query allocation, but a single context must never be used by two
// queries at once.
type ExecContext struct {
	effLo, effHi []int64
	ranges       []dimRange
	idx, at      []int // per grid dim: walked partition, index in ranges
	conds        []condRange
	exact        []bool
	runs         []run
}

// NewExecContext returns an empty context. Buffers grow on first use and are
// retained across queries.
func NewExecContext() *ExecContext { return &ExecContext{} }

// effBounds returns the context's effective-filter arrays sized for d dims.
func (ctx *ExecContext) effBounds(d int) ([]int64, []int64) {
	if cap(ctx.effLo) < d {
		ctx.effLo = make([]int64, d)
		ctx.effHi = make([]int64, d)
	}
	return ctx.effLo[:d], ctx.effHi[:d]
}

// dimScratch returns the context's range array, empty with room for nd
// grid dims, and its index and position arrays sized for nd grid dims.
func (ctx *ExecContext) dimScratch(nd int) ([]dimRange, []int, []int) {
	if cap(ctx.ranges) < nd {
		ctx.ranges = make([]dimRange, nd)
		ctx.idx = make([]int, nd)
		ctx.at = make([]int, nd)
	}
	return ctx.ranges[:0], ctx.idx[:nd], ctx.at[:nd]
}
