package gridtree

import (
	"repro/internal/query"
	"repro/internal/stats"
)

// typeHists holds, for one candidate split dimension, one skew histogram
// per query type over the node's range in that dimension (§4.2.1: skew is
// computed independently per type and summed).
type typeHists struct {
	hists []*stats.Histogram // indexed by query type; nil when type absent
}

// buildTypeHists builds per-type histograms over [lo, hi] of dimension dim.
// Each query contributes unit mass spread uniformly over the bins its
// (clipped) filter range intersects; unfiltered queries spread over the
// whole range. Bin layout: one bin per unique value if the dimension has at
// most maxBins uniques (then per-bin skew is truly zero), else maxBins
// equi-width bins (§4.3.2).
func buildTypeHists(values []int64, dim int, lo, hi int64, queries []query.Query, numTypes, maxBins int) *typeHists {
	proto := stats.NewFromValues(values, maxBins)
	th := &typeHists{hists: make([]*stats.Histogram, numTypes)}
	for _, q := range queries {
		ty := q.Type
		if ty < 0 || ty >= numTypes {
			ty = 0
		}
		h := th.hists[ty]
		if h == nil {
			h = &stats.Histogram{Bounds: proto.Bounds, Mass: make([]float64, proto.NumBins())}
			th.hists[ty] = h
		}
		flo, fhi := lo, hi
		if f, ok := q.Filter(dim); ok {
			if f.Lo > flo {
				flo = f.Lo
			}
			if f.Hi < fhi {
				fhi = f.Hi
			}
		}
		if flo > fhi {
			continue // query does not intersect this node in dim
		}
		h.AddRange(flo, fhi, 1)
	}
	return th
}

// numBins returns the shared bin count.
func (t *typeHists) numBins() int {
	for _, h := range t.hists {
		if h != nil {
			return h.NumBins()
		}
	}
	return 0
}

// skewOver returns the combined query skew over bins [x, y): the sum over
// query types of each type's skew (§4.3.1).
func (t *typeHists) skewOver(x, y int) float64 {
	total := 0.0
	for _, h := range t.hists {
		if h != nil {
			total += h.SkewOver(x, y)
		}
	}
	return total
}

// binBoundary returns the value at the left edge of bin x.
func (t *typeHists) binBoundary(x int) int64 {
	for _, h := range t.hists {
		if h != nil {
			return h.Bounds[x]
		}
	}
	return 0
}

// skewTreeNode is a node of the balanced binary skew tree (§4.3.2, Fig 4).
// Each node represents bins [x, y) and stores the skew over that range plus
// the minimum combined skew achievable by any covering set of its subtree.
type skewTreeNode struct {
	x, y        int
	skew        float64
	minCombined float64
	left, right *skewTreeNode
}

// buildSkewTree builds the tree over bins [x, y). Leaves cover leafBins
// bins each (2 by default: the skew over a single bin is always zero, so a
// 128-bin histogram yields 64 leaves as in §4.3.2).
func buildSkewTree(t *typeHists, x, y, leafBins int) *skewTreeNode {
	n := &skewTreeNode{x: x, y: y, skew: t.skewOver(x, y)}
	if y-x <= leafBins {
		n.minCombined = n.skew
		return n
	}
	mid := x + (y-x+1)/2
	n.left = buildSkewTree(t, x, mid, leafBins)
	n.right = buildSkewTree(t, mid, y, leafBins)
	// First DP pass (bottom-up): the best covering of this subtree either
	// keeps the node whole or splits into the children's best coverings.
	childBest := n.left.minCombined + n.right.minCombined
	if n.skew <= childBest {
		n.minCombined = n.skew
	} else {
		n.minCombined = childBest
	}
	return n
}

// coveringSet extracts the minimum-skew covering set (second DP pass,
// top-down): a node joins the set when keeping it whole is at least as good
// as its children's coverings.
func (n *skewTreeNode) coveringSet(out []*skewTreeNode) []*skewTreeNode {
	if n.left == nil || n.skew <= n.left.minCombined+n.right.minCombined {
		return append(out, n)
	}
	out = n.left.coveringSet(out)
	return n.right.coveringSet(out)
}

// mergeCovering performs the final ordered merge pass (§4.3.2): adjacent
// covering ranges merge when the combined skew is at most mergeFactor times
// the sum of their individual skews, counteracting superfluous binary-tree
// splits and regularizing the number of split values.
//
// epsMass is a small additive tolerance (a fraction of the node's query
// mass). Without it, zero-skew ranges — one-bin-per-unique-value leaves
// always have zero skew — could never merge under the purely multiplicative
// rule (1.1 × 0 = 0), and low-cardinality dimensions would shatter into one
// child per value.
func mergeCovering(t *typeHists, cover []*skewTreeNode, mergeFactor, epsMass float64) []*skewTreeNode {
	if len(cover) <= 1 {
		return cover
	}
	out := []*skewTreeNode{cover[0]}
	for _, nd := range cover[1:] {
		last := out[len(out)-1]
		merged := t.skewOver(last.x, nd.y)
		if merged <= mergeFactor*(last.skew+nd.skew)+epsMass {
			out[len(out)-1] = &skewTreeNode{x: last.x, y: nd.y, skew: merged}
			continue
		}
		out = append(out, nd)
	}
	return out
}

// splitPlan is the outcome of the split search for one dimension.
type splitPlan struct {
	dim       int
	values    []int64 // split values V (boundaries between covering ranges)
	reduction float64 // R_dim: whole-range skew minus covering skew (§4.3.2)
}

// planSplit runs the full §4.3.2 pipeline for one dimension: histogram →
// skew tree → DP covering set → merge pass → split values and reduction.
func planSplit(values []int64, dim int, lo, hi int64, queries []query.Query, numTypes int, mergeEps float64) splitPlan {
	t := buildTypeHists(values, dim, lo, hi, queries, numTypes, histBins)
	nb := t.numBins()
	plan := splitPlan{dim: dim}
	if nb == 0 {
		return plan
	}
	whole := t.skewOver(0, nb)
	if whole <= 0 {
		return plan
	}
	leafBins := 2
	if nb < histBins {
		// One bin per unique value: there is truly no intra-bin skew, so
		// leaves may cover single bins (§4.3.2).
		leafBins = 1
	}
	root := buildSkewTree(t, 0, nb, leafBins)
	cover := root.coveringSet(nil)
	epsMass := mergeEps * float64(len(queries))
	cover = mergeCovering(t, cover, mergeFactor, epsMass)

	covered := 0.0
	for _, nd := range cover {
		covered += nd.skew
	}
	plan.reduction = whole - covered
	for i := 1; i < len(cover); i++ {
		plan.values = append(plan.values, t.binBoundary(cover[i].x))
	}
	return plan
}
