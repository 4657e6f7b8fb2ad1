package colstore

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/query"
)

// Grouped aggregation over the selection-word pipeline.
//
// The flat kernels in kernels.go fuse filter evaluation and aggregation
// and never materialize which rows matched. GROUP BY needs that
// intermediate: the selection stage (selectWords, the flat kernel writing
// a word where it would fold) produces selection words (bit k of word w
// set iff row start+w*64+k matches every filter), and the grouping
// operator consumes them column-at-a-time, folding each selected row's
// group-key value into a per-group (count, sum) pair. GroupAccumulator is
// the operator.
//
// The accumulator rests on one fact: the group column's value span is
// known (the store caches each column's min and max on first grouped
// use), so a group's cell is found by subtraction, not by search. Cells
// are a dense array sized to that span — 263 cells for a taxi zone, not
// a fixed 65 536-cell window — indexed by value-base, and COUNT and SUM
// fold in one pass over the set bits of the selection words. A bitmap
// of touched cells makes Result emit groups in key order with no sort
// and makes Reset cost O(touched cells), so one accumulator is pooled
// per query context and a query allocates nothing but its result.
//
// Two specialisations sit either side of the dense path, chosen once
// per query from the column's span (GroupRegime):
//
//   - Byte-code (COUNT, span <= maxFastGroups): the store lazily
//     byte-codes the column (codes.go) and the selection words
//     are consumed by the byte-lane count kernels — 32 rows per compare,
//     one pass over a 1-byte stream. Code c is dense cell c (both are
//     anchored at the column's min), so the kernels' counts fold into the
//     cells at Result.
//
//   - Hash (span > maxDenseSpan): cells live by value in a slice indexed
//     through a map. Also where a dense accumulator puts the rare key
//     outside its window — a buffered insert beyond the column's range,
//     or a scan of another store.
//
// A range is selected and consumed selWords words at a time, its partial
// last word included, so every row of it goes through the kernels.
//
// Partials merge exactly: a grouped ScanResult carries per-group
// (count, sum) pairs sorted by key, and Merge is a sorted-list union
// that adds pairs — so grouped results combine across delta buffers and
// shard scatter-gather by the same Merge flat ones do, with AVG derived
// from the merged pair, never averaged across partials.

// selWords is how many selection words a grouped scan selects before it
// consumes them: 1024 rows, whose group and SUM columns (8 KiB each) are
// still in L1d when the accumulator reads them.
const selWords = 16

// GroupAgg is one group's exact aggregate: the group-key value and the
// (count, sum) pair over matching rows with that key.
type GroupAgg struct {
	Key   int64
	Count uint64
	Sum   int64
}

// Avg returns the group's mean aggregate value (Sum/Count), or 0 for an
// empty group. Meaningful for SUM queries, whose groups carry the sum
// alongside the match count.
func (g GroupAgg) Avg() float64 {
	if g.Count == 0 {
		return 0
	}
	return float64(g.Sum) / float64(g.Count)
}

// GroupRegime names the accumulation path a grouped scan ran on, chosen
// per query from the group column's value span.
type GroupRegime uint8

const (
	RegimeNone     GroupRegime = iota // no accumulator ran (scalar oracle, empty result)
	RegimeByteCode                    // byte-lane COUNT kernels over the coded column
	RegimeDense                       // one-pass fold into span-sized dense cells
	RegimeHash                        // by-value cells behind a map (span > maxDenseSpan)
)

func (g GroupRegime) String() string {
	return [...]string{"none", "bytecode", "dense", "hash"}[g]
}

// Merge folds another partial into r — the one merge of the repository.
// The (count, sum) pair and the scan accounting add; groups merge by a
// sorted-list union that adds the pairs of shared keys. Because the
// pairs are exact, partials from disjoint scans (delta buffers, shard
// scatter-gather) merge exactly — including AVG, overall
// and per group, which is derived from the merged pair (Avg,
// GroupAgg.Avg), never averaged across partials. The union is built in
// r.Groups' own capacity, growing it only when o brings keys r lacks,
// and never aliases o.Groups.
//
// Groups keyed by different dimensions have no union: when both sides
// hold groups and their GroupDim differ, Merge changes nothing and
// returns false.
func (r *ScanResult) Merge(o ScanResult) bool {
	if len(r.Groups) > 0 && len(o.Groups) > 0 && r.GroupDim != o.GroupDim {
		return false
	}
	r.Count += o.Count
	r.Sum += o.Sum
	r.PointsScanned += o.PointsScanned
	r.BytesTouched += o.BytesTouched
	r.Regime = max(r.Regime, o.Regime)
	if len(o.Groups) == 0 {
		return true
	}
	if len(r.Groups) == 0 {
		r.GroupDim = o.GroupDim
		r.Groups = append(r.Groups[:0], o.Groups...)
		return true
	}
	a, b := r.Groups, o.Groups
	extra := 0 // keys of b that a lacks
	for i, j := 0, 0; j < len(b); {
		switch {
		case i == len(a) || b[j].Key < a[i].Key:
			extra++
			j++
		case b[j].Key == a[i].Key:
			i++
			j++
		default:
			i++
		}
	}
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, extra)[:len(a)+extra]
	// Merge from the back so every slot is read before it is written;
	// once b is exhausted the rest of a is already in place.
	for k := len(a) - 1; j >= 0; k-- {
		switch {
		case i >= 0 && a[i].Key > b[j].Key:
			a[k] = a[i]
			i--
		case i >= 0 && a[i].Key == b[j].Key:
			a[k] = GroupAgg{Key: a[i].Key, Count: a[i].Count + b[j].Count, Sum: a[i].Sum + b[j].Sum}
			i--
			j--
		default:
			a[k] = b[j]
			j--
		}
	}
	r.Groups = a
	return true
}

// Find returns the group for key and whether it exists (binary search
// over the sorted groups).
func (r ScanResult) Find(key int64) (GroupAgg, bool) {
	i := sort.Search(len(r.Groups), func(i int) bool { return r.Groups[i].Key >= key })
	if i < len(r.Groups) && r.Groups[i].Key == key {
		return r.Groups[i], true
	}
	return GroupAgg{}, false
}

// TotalCount returns the number of matching rows across all groups; for
// a grouped query's result it equals Count.
func (r ScanResult) TotalCount() uint64 {
	var n uint64
	for _, g := range r.Groups {
		n += g.Count
	}
	return n
}

// Equal reports whether two results are identical: aggregates,
// accounting, and every group (the groups slice makes a ScanResult
// incomparable with ==).
func (r ScanResult) Equal(o ScanResult) bool {
	return r.Count == o.Count && r.Sum == o.Sum &&
		r.PointsScanned == o.PointsScanned && r.BytesTouched == o.BytesTouched &&
		r.GroupDim == o.GroupDim && r.Regime == o.Regime && slices.Equal(r.Groups, o.Groups)
}

// Clone deep-copies the result, so cached results can be handed out
// without aliasing the cache's groups slice (a flat result has none and
// copies without allocating).
func (r ScanResult) Clone() ScanResult {
	out := r
	out.Groups = append([]GroupAgg(nil), r.Groups...)
	return out
}

const (
	// maxFastGroups bounds the byte-code path: a column whose values span
	// at most this many codes is counted by the byte-lane kernels, which
	// compare against 8 splatted codes per pass.
	maxFastGroups = 32
	// maxDenseSpan bounds the dense path: a column spanning more values
	// than this (1 MiB of cells) is accumulated by value behind a map.
	maxDenseSpan = 1 << 16
)

type groupCell struct {
	count uint64
	sum   int64
}

// GroupAccumulator accumulates grouped (count, sum) pairs across any
// number of grouped scans (ScanRanges: regions, chunks) plus individually
// added rows (delta buffers), then emits one grouped ScanResult. Reset
// arms it for a query and a store; it is built to be pooled and reset,
// never reallocated, and holds no reference to the store's data. It is
// not safe for concurrent use; parallel executors give each worker its
// own accumulator and Merge the results.
type GroupAccumulator struct {
	dim    int
	regime GroupRegime

	// Dense cells: cells[v-base] for group values in the store column's
	// [min, max]; bit i of touched is set iff cells[i].count > 0. Every
	// cell beyond the touched ones is zero, up to cap(cells).
	base    int64
	cells   []groupCell
	touched []uint64

	// By-value cells for keys outside the dense window (all of them in
	// RegimeHash), in first-seen order; hidx maps key to position.
	hidx   map[int64]int32
	hcells []GroupAgg

	// Byte-code kernel counts, one per code; code c is cells[c].
	codeCounts [maxFastGroups]uint64

	points uint64
	bytes  uint64

	sel [selWords]uint64 // selection words of the rows being scanned
}

// NewGroupAccumulator returns an accumulator armed for q over s.
func NewGroupAccumulator(q query.Query, s *Store) *GroupAccumulator {
	a := new(GroupAccumulator)
	a.Reset(q, s)
	return a
}

// Reset empties the accumulator in O(touched cells) and arms it for q's
// group dimension over s: the dense cells are sized to the group
// column's value span and anchored at its minimum. Rows from elsewhere
// (AddRow, another store's scan) still accumulate exactly; keys outside
// the window take the by-value path.
func (a *GroupAccumulator) Reset(q query.Query, s *Store) {
	for wi, w := range a.touched {
		for ; w != 0; w &= w - 1 {
			a.cells[wi<<6+bits.TrailingZeros64(w)] = groupCell{}
		}
		a.touched[wi] = 0
	}
	if len(a.hcells) > maxDenseSpan {
		// clear costs a map's capacity, not its contents: a pooled
		// accumulator must not pay for one wide query ever after.
		a.hidx, a.hcells = nil, nil
	}
	clear(a.hidx)
	a.hcells = a.hcells[:0]
	a.codeCounts = [maxFastGroups]uint64{}
	a.points, a.bytes = 0, 0

	a.dim = q.GroupDim()
	gm := s.metaFor(a.dim, false)
	a.base = gm.base
	n := int(gm.width) + 1
	switch {
	case q.Agg == query.Count && gm.width < maxFastGroups && s.NumRows() > 0:
		a.regime = RegimeByteCode
	case gm.width < maxDenseSpan:
		a.regime = RegimeDense
	default:
		a.regime, n = RegimeHash, 0
	}
	if cap(a.cells) < n {
		a.cells = make([]groupCell, n)
		a.touched = make([]uint64, (n+63)/64)
	}
	a.cells, a.touched = a.cells[:n], a.touched[:(n+63)/64]
}

// Regime reports the accumulation path Reset chose for the query.
func (a *GroupAccumulator) Regime() GroupRegime { return a.regime }

// AddRow folds one matching row (its group-key value and, for SUM, its
// aggregate value — pass 0 for COUNT) into the accumulator. Used by the
// delta-buffer scan and the scalar fallback; scan-volume accounting is
// the caller's via AddScanned.
func (a *GroupAccumulator) AddRow(key, aggVal int64) {
	if idx := uint64(key - a.base); idx < uint64(len(a.cells)) {
		c := &a.cells[idx]
		if c.count == 0 {
			a.touched[idx>>6] |= 1 << (idx & 63)
		}
		c.count++
		c.sum += aggVal
		return
	}
	i, ok := a.hidx[key]
	if !ok {
		if a.hidx == nil {
			a.hidx = make(map[int64]int32)
		}
		i = int32(len(a.hcells))
		a.hidx[key] = i
		a.hcells = append(a.hcells, GroupAgg{Key: key})
	}
	a.hcells[i].Count++
	a.hcells[i].Sum += aggVal
}

// AddScanned charges scan volume to the accumulator's accounting.
func (a *GroupAccumulator) AddScanned(points, bytes uint64) {
	a.points += points
	a.bytes += bytes
}

// consume folds the rows selected by sel — words of 64 rows from row0,
// the last one ending at end — into the accumulator. With codes set the
// byte-code count kernels take them; otherwise this is the one-pass fold:
// for every set bit, the row's group value picks its cell by subtraction
// and COUNT and SUM (agg nil for COUNT) add in place.
func (a *GroupAccumulator) consume(gcol, agg []int64, codes []byte, row0, end int, sel []uint64) {
	if codes != nil {
		// The coded image is padded, so the last word's codes can be read
		// whole; its clear bits count nothing.
		groupCountCodes(codes[row0:row0+len(sel)*64], sel, a.codeCounts[:], len(a.cells))
		return
	}
	// COUNT reads its zero "aggregate" from the group column under an
	// all-clear mask, so one loop serves both and neither branches on it.
	gcol = gcol[row0:end]
	vals, keep := gcol, int64(0)
	if agg != nil {
		vals, keep = agg[row0:end], -1
	}
	cells, touched, base := a.cells, a.touched, a.base
	for w, m := range sel {
		for ; m != 0; m &= m - 1 {
			r := w<<6 + bits.TrailingZeros64(m)
			k, v := gcol[r], vals[r]&keep
			idx := uint64(k - base)
			if idx >= uint64(len(cells)) {
				a.AddRow(k, v)
				continue
			}
			c := &cells[idx]
			if c.count == 0 {
				touched[idx>>6] |= 1 << (idx & 63)
			}
			c.count++
			c.sum += v
		}
	}
}

// Result assembles the accumulated groups into a ScanResult sorted by
// key, with Count and Sum totalled over them: the dense cells are
// emitted in index order off the touched bitmap, and only by-value
// cells (which all lie outside the dense window, below or above it) are
// sorted. The accumulator remains usable (further scans keep
// accumulating).
func (a *GroupAccumulator) Result() ScanResult {
	res := ScanResult{
		GroupDim:      a.dim,
		Regime:        a.regime,
		PointsScanned: a.points,
		BytesTouched:  a.bytes,
	}
	if a.regime == RegimeByteCode {
		// Code c is cell c: move the kernels' counts over (and zero them,
		// so a later Result does not count them twice).
		for c, n := range a.codeCounts[:len(a.cells)] {
			if n != 0 {
				a.cells[c].count += n
				a.touched[0] |= 1 << c
				a.codeCounts[c] = 0
			}
		}
	}
	n := len(a.hcells)
	for _, w := range a.touched {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return res
	}
	res.Groups = make([]GroupAgg, 0, n)
	var above []GroupAgg // by-value cells keyed above the dense window
	if len(a.hcells) > 0 {
		byKey := slices.Clone(a.hcells)
		slices.SortFunc(byKey, func(x, y GroupAgg) int { return cmp.Compare(x.Key, y.Key) })
		below, _ := slices.BinarySearchFunc(byKey, a.base, func(g GroupAgg, k int64) int { return cmp.Compare(g.Key, k) })
		res.Groups = append(res.Groups, byKey[:below]...)
		above = byKey[below:]
	}
	for wi, w := range a.touched {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			res.Groups = append(res.Groups, GroupAgg{Key: a.base + int64(i), Count: a.cells[i].count, Sum: a.cells[i].sum})
		}
	}
	res.Groups = append(res.Groups, above...)
	res.total()
	return res
}

// total sets Count and Sum to the totals over the groups.
func (r *ScanResult) total() {
	r.Count, r.Sum = 0, 0
	for _, g := range r.Groups {
		r.Count += g.Count
		r.Sum += g.Sum
	}
}

// scanRangeGrouped scans physical rows [start, end) of the prepared
// store against its query and folds matching rows into acc, grouped by
// q.GroupDim(). exact has the same meaning as in ScanRange — every row
// in the range is known to match, so filter columns are not read — but
// the group column (and the aggregate column for SUM) is always touched:
// a grouped aggregate cannot skip data the way an exact flat COUNT can.
// The range is selected (selectWords, or selectCoded on the byte images)
// and consumed selWords words at a time.
//
// Accounting mirrors ScanRange's planned-bytes model with the group
// column as one extra stream: n*8*(filters + 1 + sumCols) bytes
// non-exact, n*8*(1 + sumCols) exact.
func (sc *prepared) scanRangeGrouped(start, end int, exact bool, acc *GroupAccumulator) {
	s, q := sc.s, sc.q
	if start < 0 {
		start = 0
	}
	if end > s.NumRows() {
		end = s.NumRows()
	}
	if start >= end {
		return
	}
	n := uint64(end - start)
	acc.points += n
	nf := len(q.Filters)
	if exact {
		nf = 0
	}
	acc.bytes += n * 8 * uint64(nf+1+sumCols(q))
	if !exact && sc.kind == scanEmpty {
		return
	}
	filtered := !exact && sc.filtered()
	gcol := s.cols[q.GroupDim()]
	var aggCol []int64
	if q.Agg == query.Sum {
		aggCol = s.cols[q.AggDim]
	}
	// The byte-code kernels count code c into cell c, so they serve any
	// store whose coding lands inside the accumulator's window — the one
	// it was Reset for, or another coded from the same base; otherwise
	// this store's rows fold through the cells by value.
	var codes []byte
	if acc.regime == RegimeByteCode {
		if gm := s.metaFor(q.GroupDim(), false); gm.base == acc.base && gm.width < uint64(len(acc.cells)) {
			codes = s.metaFor(q.GroupDim(), true).codes
		}
	}
	for r := start; r < end; r += selWords * 64 {
		re := min(end, r+selWords*64)
		sel := acc.sel[:(re-r+63)>>6]
		switch {
		case !filtered:
			for w := range sel {
				sel[w] = ^uint64(0)
			}
			if tail := (re - r) & 63; tail != 0 {
				sel[len(sel)-1] = 1<<tail - 1
			}
		case sc.kind == scanCoded:
			selectCoded(sc.coded[:sc.n], r, re, sel)
		default:
			s.selectWords(q.Filters, r, re, sel)
		}
		acc.consume(gcol, aggCol, codes, r, re, sel)
	}
}

// ScanRangeGroupedScalar is the row-at-a-time grouped scan, retained as
// the oracle the grouped ScanRanges is property-tested and benchmarked
// against. It merges its groups into res with identical accounting.
func (s *Store) ScanRangeGroupedScalar(q query.Query, start, end int, exact bool, res *ScanResult) {
	if start < 0 {
		start = 0
	}
	if end > s.NumRows() {
		end = s.NumRows()
	}
	if start >= end {
		return
	}
	n := uint64(end - start)
	part := ScanResult{GroupDim: q.GroupDim(), PointsScanned: n}
	if exact {
		part.BytesTouched = n * 8 * uint64(1+sumCols(q))
	} else {
		part.BytesTouched = n * 8 * uint64(len(q.Filters)+1+sumCols(q))
		for _, f := range q.Filters {
			if f.Lo > f.Hi {
				res.Merge(part)
				return
			}
		}
	}
	gcol := s.cols[q.GroupDim()]
	groups := make(map[int64]groupCell)
	for i := start; i < end; i++ {
		if !exact {
			ok := true
			for _, f := range q.Filters {
				if v := s.cols[f.Dim][i]; v < f.Lo || v > f.Hi {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		c := groups[gcol[i]]
		c.count++
		if q.Agg == query.Sum {
			c.sum += s.cols[q.AggDim][i]
		}
		groups[gcol[i]] = c
	}
	for k, c := range groups {
		part.Groups = append(part.Groups, GroupAgg{Key: k, Count: c.count, Sum: c.sum})
	}
	sort.Slice(part.Groups, func(i, j int) bool { return part.Groups[i].Key < part.Groups[j].Key })
	part.total()
	res.Merge(part)
}
