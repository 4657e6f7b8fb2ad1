package auggrid

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/cdfmodel"
	"repro/internal/colstore"
	"repro/internal/query"
)

// cellsPerBlock sets the initial cell budget to roughly one cell per this
// many points.
const cellsPerBlock = 1024

// OptimizeConfig controls layout search.
type OptimizeConfig struct {
	Eval EvalConfig
	// MaxCells caps the lookup-table size (default 1<<20).
	MaxCells int
	// MaxIters bounds AGD's outer loop (default 6).
	MaxIters int
	// NoSortDim turns off the within-cell sort dimension and its
	// binary-search refinement. By default the sort dim is the most
	// selective filtered dim (Flood's sort dimension).
	NoSortDim bool
	// FMErrFrac is the functional-mapping initialization threshold: map X
	// onto Y when the regression error band is below this fraction of Y's
	// domain (paper default 0.10, §5.3.2).
	FMErrFrac float64
	// CCDFEmptyFrac is the conditional-CDF initialization threshold: use
	// CDF(X|Y) when independent partitioning would leave more than this
	// fraction of XY-hyperplane cells empty (paper default 0.25, §5.3.2).
	CCDFEmptyFrac float64
	// OutlierFrac enables outlier-robust functional mappings (§8): the
	// mapping error band is trimmed to exclude up to this fraction of
	// rows, which are diverted to a scanned-always buffer. Zero (the
	// default) keeps the paper's base design.
	OutlierFrac float64
	// Seed drives stochastic pieces (black box); default 1.
	Seed int64
}

func (c *OptimizeConfig) fill() {
	c.Eval.fill()
	if c.MaxCells <= 0 {
		c.MaxCells = 1 << 20
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 6
	}
	if c.FMErrFrac == 0 {
		c.FMErrFrac = 0.10
	}
	if c.CCDFEmptyFrac == 0 {
		c.CCDFEmptyFrac = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Optimizer is a named layout-search strategy, so experiment code can
// compare AGD against the paper's three alternatives (Fig 12b).
type Optimizer struct {
	// Name matches the paper: "AGD", "GD", "BlackBox", "AGD-NI".
	Name string
	fn   func(*searchCtx) Layout
}

// AGD is Adaptive Gradient Descent (§5.3.2): heuristic initialization, then
// alternating gradient steps over P and one-hop local search over skeletons.
func AGD() Optimizer { return Optimizer{Name: "AGD", fn: runAGD} }

// GD keeps the initial skeleton fixed and only descends over P.
func GD() Optimizer { return Optimizer{Name: "GD", fn: runGD} }

// BlackBox is a gradient-free joint search (simulated annealing standing in
// for SciPy basin hopping, 50 iterations as in §6.6).
func BlackBox() Optimizer { return Optimizer{Name: "BlackBox", fn: runBlackBox} }

// AGDNI is AGD from the naive all-Independent initial skeleton.
func AGDNI() Optimizer { return Optimizer{Name: "AGD-NI", fn: runAGDNI} }

// searchCtx carries everything a search strategy needs.
type searchCtx struct {
	st      *colstore.Store
	rows    []int
	queries []query.Query
	eval    *Evaluator
	cfg     OptimizeConfig
	rng     *rand.Rand
	d       int
	sortDim int
	// avgSel[j] is the average selectivity of filters over dim j (1 if
	// never filtered); filtered[j] reports whether any query filters j.
	avgSel   []float64
	filtered []bool
}

// Optimize searches for a low-cost layout for the rows of st under the
// query workload, using the given strategy. It returns the layout and its
// predicted cost.
func Optimize(st *colstore.Store, rows []int, queries []query.Query, opt Optimizer, cfg OptimizeConfig) (Layout, float64) {
	cfg.fill()
	// Scale the cell budget with the region: a lookup table larger than
	// ~1/32 of the rows only adds overhead. (Tab 4 ratios are far below
	// this: Flood uses one cell per ~220-700 points.)
	if budget := len(rows) / 32; budget < cfg.MaxCells {
		if budget < 16 {
			budget = 16
		}
		cfg.MaxCells = budget
	}
	ctx := newSearchCtx(st, rows, queries, cfg)
	l := opt.fn(ctx)
	return l, ctx.eval.Cost(l)
}

func newSearchCtx(st *colstore.Store, rows []int, queries []query.Query, cfg OptimizeConfig) *searchCtx {
	ctx := &searchCtx{
		st:      st,
		rows:    rows,
		queries: queries,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		d:       st.NumDims(),
		sortDim: -1,
	}
	ctx.eval = NewEvaluator(st, rows, queries, cfg.Eval)
	ctx.computeSelectivities()
	if !cfg.NoSortDim {
		ctx.sortDim = ctx.pickSortDim()
	}
	return ctx
}

// computeSelectivities estimates per-dimension filter selectivity on the
// evaluation sample.
func (c *searchCtx) computeSelectivities() {
	c.avgSel = make([]float64, c.d)
	c.filtered = make([]bool, c.d)
	cnt := make([]int, c.d)
	sum := make([]float64, c.d)
	n := c.eval.sample.NumRows()
	for _, q := range c.eval.queries {
		for _, f := range q.Filters {
			col := c.eval.sample.Column(f.Dim)
			match := 0
			for _, v := range col {
				if v >= f.Lo && v <= f.Hi {
					match++
				}
			}
			sel := 1.0
			if n > 0 {
				sel = float64(match) / float64(n)
			}
			sum[f.Dim] += sel
			cnt[f.Dim]++
			c.filtered[f.Dim] = true
		}
	}
	for j := 0; j < c.d; j++ {
		if cnt[j] > 0 {
			c.avgSel[j] = sum[j] / float64(cnt[j])
		} else {
			c.avgSel[j] = 1.0
		}
	}
}

// pickSortDim returns the most selective filtered dimension.
func (c *searchCtx) pickSortDim() int {
	best, bestSel := -1, 2.0
	for j := 0; j < c.d; j++ {
		if c.filtered[j] && c.avgSel[j] < bestSel {
			best, bestSel = j, c.avgSel[j]
		}
	}
	return best
}

// newLayout builds a layout bound to the search context's sort dim and
// outlier-buffer setting.
func (c *searchCtx) newLayout(s Skeleton, p []int) Layout {
	l := NewLayout(s, p, c.sortDim)
	l.OutlierFrac = c.cfg.OutlierFrac
	return l
}

// ---------------------------------------------------------------------------
// Initialization heuristics (§5.3.2 step 1).

// heuristicSkeleton makes the paper's best-guess initial skeleton: for each
// dimension X, map onto Y if the regression error band is under FMErrFrac of
// Y's domain; else partition with CDF(X|Y) if independent partitioning would
// leave more than CCDFEmptyFrac of the XY hyperplane empty; else partition
// independently.
func (c *searchCtx) heuristicSkeleton() Skeleton {
	s := IndependentSkeleton(c.d)
	sample := c.eval.sample

	type fmCand struct {
		x, y   int
		relErr float64
	}
	var fms []fmCand
	for x := 0; x < c.d; x++ {
		if x == c.sortDim {
			continue
		}
		for y := 0; y < c.d; y++ {
			if y == x || y == c.sortDim {
				continue
			}
			// With robust mappings enabled, eligibility uses the trimmed
			// error band (§8): a few outliers no longer disqualify a pair.
			lr, _ := robustFit(sample.Column(x), sample.Column(y), c.cfg.OutlierFrac)
			lo, hi := minMax(sample.Column(y))
			domain := float64(hi - lo)
			if domain <= 0 {
				continue
			}
			rel := lr.ErrSpan() / domain
			if rel < c.cfg.FMErrFrac {
				fms = append(fms, fmCand{x: x, y: y, relErr: rel})
			}
		}
	}
	// Prefer removing dims the workload constrains least: mapping an
	// unfiltered dim onto a filtered one is free, while removing a
	// selectively-filtered dim forces its filters through the mapping
	// error. Tie-break by mapping tightness.
	weight := func(j int) float64 {
		if !c.filtered[j] {
			return 0
		}
		return -math.Log2(math.Max(c.avgSel[j], 1e-6))
	}
	sort.Slice(fms, func(a, b int) bool {
		wa, wb := weight(fms[a].x), weight(fms[b].x)
		if wa != wb {
			return wa < wb
		}
		return fms[a].relErr < fms[b].relErr
	})
	isTarget := make([]bool, c.d)
	for _, f := range fms {
		if s[f.x].Kind != Independent || isTarget[f.x] {
			continue // already mapped, or someone maps onto it
		}
		if s[f.y].Kind == Mapped {
			continue // target cannot be mapped
		}
		s[f.x] = DimStrategy{Kind: Mapped, Other: f.y}
		isTarget[f.y] = true
	}

	// Conditional CDFs for remaining independent dims.
	type ccCand struct {
		x, y  int
		empty float64
	}
	var ccs []ccCand
	eq := make([][]int64, c.d) // per dim, 16 equi-depth partitions of the sample
	for j := range eq {
		eq[j] = equiDepthBounds(c.eval.ord.sorted[j], 16)
	}
	for x := 0; x < c.d; x++ {
		if s[x].Kind != Independent || x == c.sortDim || isTarget[x] {
			continue
		}
		for y := 0; y < c.d; y++ {
			if y == x || y == c.sortDim || s[y].Kind != Independent {
				continue
			}
			e := emptyCellFraction(sample.Column(x), sample.Column(y), eq[x], eq[y])
			if e > c.cfg.CCDFEmptyFrac {
				ccs = append(ccs, ccCand{x: x, y: y, empty: e})
			}
		}
	}
	sort.Slice(ccs, func(a, b int) bool { return ccs[a].empty > ccs[b].empty })
	isBase := make([]bool, c.d)
	for _, cc := range ccs {
		if s[cc.x].Kind != Independent || isBase[cc.x] {
			continue // dim already dependent, or it is someone's base
		}
		if s[cc.y].Kind != Independent {
			continue // base must stay independent
		}
		s[cc.x] = DimStrategy{Kind: Conditional, Other: cc.y}
		isBase[cc.y] = true
	}
	return s
}

// emptyCellFraction imposes a p×p equi-depth grid over dims (x, y) of the
// sample, the dims' bounds bx and by (p+1 each, from equiDepthBounds), and
// returns the fraction of empty cells — the §5.3.2 signal for conditional
// CDFs.
func emptyCellFraction(xs, ys, bx, by []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p := len(bx) - 1
	occupied := make([]bool, p*p)
	for i := range xs {
		ix := clampPart(searchGT(bx, 0, len(bx), xs[i])-1, p)
		iy := clampPart(searchGT(by, 0, len(by), ys[i])-1, p)
		occupied[ix*p+iy] = true
	}
	full := 0
	for _, o := range occupied {
		if o {
			full++
		}
	}
	return 1 - float64(full)/float64(p*p)
}

// equiDepthBounds returns the p+1 boundaries of p equi-depth partitions of
// sorted, a column's values in ascending order (all zero when it is empty).
func equiDepthBounds(sorted []int64, p int) []int64 {
	b := make([]int64, p+1)
	if len(sorted) == 0 {
		return b
	}
	for i := 0; i <= p; i++ {
		idx := i * len(sorted) / p
		if idx >= len(sorted) {
			b[i] = cdfmodel.Above(sorted[len(sorted)-1])
		} else {
			b[i] = sorted[idx]
		}
	}
	for i := 1; i <= p; i++ {
		if b[i] < b[i-1] {
			b[i] = b[i-1]
		}
	}
	return b
}

func minMax(vals []int64) (int64, int64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// effectiveFiltered reports which grid dims the workload constrains under
// skeleton s: a dim is effectively filtered if queries filter it directly
// or if a filtered dim is mapped onto it (the functional mapping rewrites
// those filters onto the target, which therefore needs partitions).
func (c *searchCtx) effectiveFiltered(s Skeleton) []bool {
	out := append([]bool(nil), c.filtered...)
	for m, st := range s {
		if st.Kind == Mapped && c.filtered[m] {
			out[st.Other] = true
		}
	}
	return out
}

// effectiveSel returns the selectivity weight of dim j under s, taking the
// tightest of its own filters and any filters mapped onto it.
func (c *searchCtx) effectiveSel(s Skeleton, j int) float64 {
	sel := c.avgSel[j]
	for m, st := range s {
		if st.Kind == Mapped && st.Other == j && c.filtered[m] && c.avgSel[m] < sel {
			sel = c.avgSel[m]
		}
	}
	return sel
}

// initialP distributes a cell budget across grid dims proportionally to how
// selective the workload is in each (§5.3.2: "initialize P proportionally
// to the average query filter selectivity in each grid dimension").
func (c *searchCtx) initialP(s Skeleton) []int {
	p := make([]int, c.d)
	for j := range p {
		p[j] = 1
	}
	budget := float64(len(c.rows)) / cellsPerBlock
	if budget < 16 {
		budget = 16
	}
	if budget > float64(c.cfg.MaxCells) {
		budget = float64(c.cfg.MaxCells)
	}
	logBudget := math.Log2(budget)

	layout := NewLayout(s, p, c.sortDim)
	gd := layout.GridDims()
	eff := c.effectiveFiltered(s)
	weights := make([]float64, 0, len(gd))
	dims := make([]int, 0, len(gd))
	var wsum float64
	for _, j := range gd {
		if !eff[j] {
			continue // never-constrained dims keep one partition
		}
		w := -math.Log2(math.Max(c.effectiveSel(s, j), 1e-6))
		if w < 0.1 {
			w = 0.1
		}
		weights = append(weights, w)
		dims = append(dims, j)
		wsum += w
	}
	if wsum == 0 {
		return p
	}
	for i, j := range dims {
		p[j] = int(math.Round(math.Exp2(logBudget * weights[i] / wsum)))
		if p[j] < 1 {
			p[j] = 1
		}
	}
	return p
}

// ---------------------------------------------------------------------------
// Search strategies.

func runAGD(c *searchCtx) Layout {
	s := c.heuristicSkeleton()
	return c.agdLoop(s)
}

func runAGDNI(c *searchCtx) Layout {
	return c.agdLoop(IndependentSkeleton(c.d))
}

func runGD(c *searchCtx) Layout {
	s := c.heuristicSkeleton()
	l := c.newLayout(s, c.initialP(s))
	l, _ = c.gdStep(l, c.eval.Cost(l))
	return l
}

// agdLoop alternates gradient steps over P with one-hop skeleton search
// (§5.3.2 steps 2–4).
func (c *searchCtx) agdLoop(s Skeleton) Layout {
	l := c.newLayout(s, c.initialP(s))
	cost := c.eval.Cost(l)
	for iter := 0; iter < c.cfg.MaxIters; iter++ {
		improved := false
		l2, cost2 := c.gdStep(l, cost)
		if cost2 < cost {
			l, cost = l2, cost2
			improved = true
		}
		l3, cost3 := c.bestSkeletonHop(l)
		if cost3 < cost {
			l, cost = l3, cost3
			improved = true
		}
		if !improved {
			break
		}
	}
	return l
}

// gdStep performs coordinate descent over P with multiplicative moves,
// exploiting that the cost model is smooth in P (§5.3.2 step 2).
func (c *searchCtx) gdStep(l Layout, cost float64) (Layout, float64) {
	factors := []float64{2, 0.5, 1.3, 0.77}
	eff := c.effectiveFiltered(l.Skeleton)
	for pass := 0; pass < 8; pass++ {
		improved := false
		for _, j := range l.GridDims() {
			if !eff[j] && l.P[j] == 1 {
				continue
			}
			for _, f := range factors {
				np := int(math.Round(float64(l.P[j]) * f))
				if np == l.P[j] {
					np = l.P[j] + sign(f-1)
				}
				if np < 1 {
					continue
				}
				cand := l.Clone()
				cand.P[j] = np
				cand.normalize()
				if cand.NumCells() > c.cfg.MaxCells {
					continue
				}
				if cc := c.eval.Cost(cand); cc < cost {
					l, cost = cand, cc
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return l, cost
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// bestSkeletonHop evaluates every skeleton one hop away (changing the
// strategy of a single dimension, §5.3.2 step 3) and returns the cheapest.
func (c *searchCtx) bestSkeletonHop(l Layout) (Layout, float64) {
	best := l
	bestCost := c.eval.Cost(l)
	for j := 0; j < c.d; j++ {
		if j == c.sortDim {
			continue
		}
		for _, alt := range c.hopsForDim(l.Skeleton, j) {
			cand := l.Clone()
			cand.Skeleton[j] = alt
			if alt.Kind != Mapped && cand.P[j] <= 1 && c.effectiveFiltered(cand.Skeleton)[j] {
				cand.P[j] = 4 // give a newly un-mapped dim some partitions
			}
			cand.normalize()
			if cand.Validate() != nil || cand.NumCells() > c.cfg.MaxCells {
				continue
			}
			if cc := c.eval.Cost(cand); cc < bestCost {
				best, bestCost = cand, cc
			}
		}
	}
	return best, bestCost
}

// hopsForDim lists alternative strategies for dim j consistent with the
// rest of the skeleton.
func (c *searchCtx) hopsForDim(s Skeleton, j int) []DimStrategy {
	var out []DimStrategy
	cur := s[j]
	// Dim j must not be referenced by others if it would stop being a valid
	// base/target.
	referenced := false
	for i, st := range s {
		if i != j && st.Kind != Independent && st.Other == j {
			referenced = true
		}
	}
	if cur.Kind != Independent {
		out = append(out, DimStrategy{Kind: Independent, Other: -1})
	}
	if referenced {
		// Bases/targets can only become Independent (handled above) —
		// anything else would break the referencing dim.
		return out
	}
	for o := 0; o < c.d; o++ {
		if o == j || o == c.sortDim {
			continue
		}
		if s[o].Kind != Mapped && (cur.Kind != Mapped || cur.Other != o) {
			out = append(out, DimStrategy{Kind: Mapped, Other: o})
		}
		if s[o].Kind == Independent && (cur.Kind != Conditional || cur.Other != o) {
			out = append(out, DimStrategy{Kind: Conditional, Other: o})
		}
	}
	return out
}

// runBlackBox is the gradient-free baseline of §6.6: simulated annealing
// over (S, P) from the heuristic start, 50 iterations.
func runBlackBox(c *searchCtx) Layout {
	s := c.heuristicSkeleton()
	cur := c.newLayout(s, c.initialP(s))
	curCost := c.eval.Cost(cur)
	best, bestCost := cur, curCost
	temp := curCost * 0.3
	for iter := 0; iter < 50; iter++ {
		cand := c.randomNeighbor(cur)
		candCost := c.eval.Cost(cand)
		accept := candCost < curCost
		if !accept && temp > 0 {
			accept = c.rng.Float64() < math.Exp((curCost-candCost)/temp)
		}
		if accept {
			cur, curCost = cand, candCost
			if curCost < bestCost {
				best, bestCost = cur, curCost
			}
		}
		temp *= 0.93
	}
	return best
}

func (c *searchCtx) randomNeighbor(l Layout) Layout {
	for attempt := 0; attempt < 32; attempt++ {
		cand := l.Clone()
		if c.rng.Intn(2) == 0 {
			// Perturb a partition count.
			gd := cand.GridDims()
			if len(gd) == 0 {
				continue
			}
			j := gd[c.rng.Intn(len(gd))]
			f := []float64{0.5, 0.8, 1.25, 2}[c.rng.Intn(4)]
			np := int(math.Round(float64(cand.P[j]) * f))
			if np < 1 {
				np = 1
			}
			cand.P[j] = np
		} else {
			// Change a random dim's strategy.
			j := c.rng.Intn(c.d)
			if j == c.sortDim {
				continue
			}
			hops := c.hopsForDim(cand.Skeleton, j)
			if len(hops) == 0 {
				continue
			}
			cand.Skeleton[j] = hops[c.rng.Intn(len(hops))]
			if cand.Skeleton[j].Kind != Mapped && cand.P[j] <= 1 && c.filtered[j] {
				cand.P[j] = 4
			}
		}
		cand.normalize()
		if cand.Validate() == nil && cand.NumCells() <= c.cfg.MaxCells {
			return cand
		}
	}
	return l.Clone()
}
