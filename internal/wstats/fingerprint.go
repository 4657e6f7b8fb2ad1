// Package wstats is the workload-statistics layer: where internal/obs
// measures the serving machinery (latency histograms, queue depths, scan
// volume), wstats describes the workload itself — which query shapes
// arrive, how skewed their popularity is, what selectivities and filter
// bounds they observe, whether latency objectives hold, and which concrete
// queries populate the tail. It is the online counterpart of the offline
// training workload the paper's optimizer consumes.
//
// The package follows the same contract as internal/obs: a nil *Collector
// disables everything with zero hot-path cost, and recording never blocks
// the query path — the few always-on pieces are one striped query count
// (whose per-stripe sequence also picks the sampled queries), an SLO
// counter per objective that only slow queries write, and the slow-query
// threshold check; and everything stateful
// (sketch, histograms, slow-query ring) sits behind one mutex that Record
// only ever tries, for 1 query in 8 (sampleEvery): a sample that finds it
// held is dropped and counted, never waited on. The Collector is passive
// — no goroutine, no channel, nothing to close.
package wstats

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/query"
)

// Fingerprint is a stable 64-bit identity for a query's *shape*: the
// aggregate kind, the filtered dimension set, and per filter its bound
// class (equality, half-open low/high, bounded range) plus a log2 width
// bucket for bounded ranges. Two queries that differ only in literal
// bound values (e.g. zone=5 vs zone=7, or two range scans of similar
// width) share a fingerprint; widening a range by more than 2x, or
// filtering a different dimension set, changes it. This is deliberately
// coarser than query equality — popularity and latency profiles attach
// to shapes, which is what a plan cache or the layout optimizer keys on
// — and finer than the shift detector's dimension-set types.
//
// The *result* cache (internal/qcache) must NOT key on fingerprints,
// and does not: two queries with one fingerprint (zone=5 vs zone=7)
// have different answers, so a shape-keyed result cache would serve one
// query's result as the other's. Result caching needs exact-literal
// equality (the canonicalized query itself, plus the serving epoch);
// observability needs literal-erasing aggregation — same canonical
// form, opposite equivalence classes, two deliberately separate keys.
type Fingerprint uint64

// Bound classes, hashed into the fingerprint and counted per dimension.
const (
	classEq    = iota // Lo == Hi
	classGe           // lower bound only
	classLe           // upper bound only
	classRange        // both bounds
	classAny          // no usable bound on either side
)

func classOf(f query.Filter) int {
	switch {
	case f.Lo == f.Hi:
		return classEq
	case f.Lo == query.NoLo && f.Hi == query.NoHi:
		return classAny
	case f.Lo == query.NoLo:
		return classLe
	case f.Hi == query.NoHi:
		return classGe
	default:
		return classRange
	}
}

// widthLog2 buckets a bounded range filter's width (Hi-Lo) by its log2,
// so ranges within 2x of each other share a fingerprint. The subtraction
// is done in uint64 so extreme bounds cannot overflow.
func widthLog2(f query.Filter) int {
	return bits.Len64(uint64(f.Hi) - uint64(f.Lo))
}

// FNV-1a, the same dependency-free hash the stdlib uses for its own
// non-cryptographic needs.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvInt(h uint64, v int) uint64 {
	for i := 0; i < 4; i++ {
		h = fnv(h, byte(v>>(8*i)))
	}
	return h
}

// Key fingerprints a query. Queries built through the query package have
// their filters sorted by dimension (normalize), so the hash is stable
// under filter order.
func Key(q query.Query) Fingerprint {
	h := uint64(fnvOffset)
	h = fnv(h, byte(q.Agg))
	if q.Agg == query.Sum {
		h = fnvInt(h, q.AggDim)
	}
	// The grouping dimension is part of the shape: `count by zone` and a
	// flat count answer different questions (and cost differently), as do
	// groupings over different dimensions. GroupBy carries 1+dim (0 when
	// flat), so hashing it verbatim separates all three cases.
	if q.Grouped() {
		h = fnvInt(h, q.GroupBy)
	}
	for _, f := range q.Filters {
		h = fnvInt(h, f.Dim)
		cls := classOf(f)
		h = fnv(h, byte(cls))
		if cls == classRange {
			h = fnv(h, byte(widthLog2(f)))
		}
	}
	return Fingerprint(h)
}

// Shape renders a fingerprint's human-readable class, e.g.
//
//	count passengers=? distance=[~2^9]
//	sum(fare) pickup_zone=? total>=?
//	count distance<=? by passengers
//
// names maps dimension index to column name; out-of-range or missing
// names fall back to d<i>. The rendering carries exactly the information
// the fingerprint hashes — literal bound values are elided as "?".
func Shape(q query.Query, names []string) string {
	var b strings.Builder
	switch q.Agg {
	case query.Sum:
		fmt.Fprintf(&b, "sum(%s)", dimName(names, q.AggDim))
	default:
		b.WriteString("count")
	}
	for _, f := range q.Filters {
		b.WriteByte(' ')
		n := dimName(names, f.Dim)
		switch classOf(f) {
		case classEq:
			b.WriteString(n + "=?")
		case classGe:
			b.WriteString(n + ">=?")
		case classLe:
			b.WriteString(n + "<=?")
		case classAny:
			b.WriteString(n + "=*")
		default:
			fmt.Fprintf(&b, "%s=[~2^%d]", n, widthLog2(f))
		}
	}
	if q.Grouped() {
		b.WriteString(" by " + dimName(names, q.GroupDim()))
	}
	return b.String()
}

func dimName(names []string, dim int) string {
	if dim >= 0 && dim < len(names) && names[dim] != "" {
		return names[dim]
	}
	return fmt.Sprintf("d%d", dim)
}
