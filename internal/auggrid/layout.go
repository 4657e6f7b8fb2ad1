// Package auggrid implements the Augmented Grid (§5), the correlation-aware
// generalization of Flood's grid that Tsunami places in every Grid Tree
// region. Each dimension is partitioned by one of three strategies:
//
//   - Independent: uniformly in CDF(X) — Flood's strategy (§2.2);
//   - Mapped: the dimension is removed from the grid and its filters are
//     rewritten over a target dimension through a functional mapping, a
//     linear regression with residual error bounds (§5.2.1);
//   - Conditional: partitioned uniformly in CDF(X|B) for a base dimension B,
//     i.e. per-base-partition boundaries (§5.2.2).
//
// A full assignment of strategies is a skeleton; skeleton plus per-dimension
// partition counts is a Layout (§5.2). Layouts are chosen by the optimizers
// in optimize.go against the cost model in cost.go. Flood is exactly the
// all-Independent special case, which core builds as its Flood variant.
package auggrid

import (
	"fmt"
	"strings"
)

// Kind is a per-dimension partitioning strategy.
type Kind int

const (
	// Independent partitions the dimension uniformly in its own CDF.
	Independent Kind = iota
	// Mapped removes the dimension from the grid; filters over it are
	// transformed onto the target dimension via a functional mapping.
	Mapped
	// Conditional partitions the dimension uniformly in CDF(dim | base),
	// with boundaries that differ per base partition.
	Conditional
)

func (k Kind) String() string {
	switch k {
	case Independent:
		return "indep"
	case Mapped:
		return "mapped"
	case Conditional:
		return "conditional"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DimStrategy is the strategy of one dimension. Other is the functional
// mapping target (Mapped) or the base dimension (Conditional); -1 otherwise.
type DimStrategy struct {
	Kind  Kind
	Other int
}

// Skeleton assigns a strategy to every dimension (§5.2).
type Skeleton []DimStrategy

// IndependentSkeleton returns the all-Independent skeleton over d dims —
// Flood's skeleton.
func IndependentSkeleton(d int) Skeleton {
	s := make(Skeleton, d)
	for i := range s {
		s[i] = DimStrategy{Kind: Independent, Other: -1}
	}
	return s
}

// Clone deep-copies the skeleton.
func (s Skeleton) Clone() Skeleton { return append(Skeleton(nil), s...) }

// Validate enforces the paper's restrictions (§5.2.1, §5.2.2): a mapping
// target cannot itself be mapped; a conditional base must be Independent
// (it cannot be mapped or dependent); no self references.
func (s Skeleton) Validate() error {
	for i, st := range s {
		switch st.Kind {
		case Independent:
			if st.Other != -1 {
				return fmt.Errorf("auggrid: dim %d independent but Other=%d", i, st.Other)
			}
		case Mapped:
			if st.Other < 0 || st.Other >= len(s) || st.Other == i {
				return fmt.Errorf("auggrid: dim %d mapped to invalid target %d", i, st.Other)
			}
			if s[st.Other].Kind == Mapped {
				return fmt.Errorf("auggrid: dim %d mapped to dim %d which is itself mapped", i, st.Other)
			}
		case Conditional:
			if st.Other < 0 || st.Other >= len(s) || st.Other == i {
				return fmt.Errorf("auggrid: dim %d conditional on invalid base %d", i, st.Other)
			}
			if s[st.Other].Kind != Independent {
				return fmt.Errorf("auggrid: dim %d conditional on dim %d which is not independent", i, st.Other)
			}
		default:
			return fmt.Errorf("auggrid: dim %d has unknown kind %d", i, st.Kind)
		}
	}
	return nil
}

// String renders the skeleton in the paper's notation, e.g. "[X,Y|X,Z→X]".
func (s Skeleton) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, st := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		switch st.Kind {
		case Independent:
			fmt.Fprintf(&b, "d%d", i)
		case Mapped:
			fmt.Fprintf(&b, "d%d→d%d", i, st.Other)
		case Conditional:
			fmt.Fprintf(&b, "d%d|d%d", i, st.Other)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Layout is a concrete Augmented Grid instantiation: skeleton, partition
// counts, and an optional within-cell sort dimension refined by binary
// search at query time (Flood's sort dimension, which §6.1's modified Flood
// retains; the Augmented Grid keeps it too).
type Layout struct {
	Skeleton Skeleton
	// P is the number of partitions per dimension. Mapped dims and the sort
	// dim are forced to 1.
	P []int
	// SortDim is the within-cell sort dimension, or -1 for none.
	SortDim int
	// OutlierFrac enables outlier-robust functional mappings (§8): up to
	// this fraction of rows may be excluded from the mappings' error bands
	// and diverted to a per-grid outlier buffer that every query scans.
	// Zero disables the buffer (the paper's base design).
	OutlierFrac float64
}

// NewLayout builds a layout, normalizing P entries for non-grid dims to 1.
func NewLayout(s Skeleton, p []int, sortDim int) Layout {
	l := Layout{Skeleton: s.Clone(), P: append([]int(nil), p...), SortDim: sortDim}
	l.normalize()
	return l
}

func (l *Layout) normalize() {
	for i := range l.P {
		if l.P[i] < 1 {
			l.P[i] = 1
		}
		if l.Skeleton[i].Kind == Mapped || i == l.SortDim {
			l.P[i] = 1
		}
	}
}

// Clone deep-copies the layout.
func (l Layout) Clone() Layout {
	return Layout{
		Skeleton:    l.Skeleton.Clone(),
		P:           append([]int(nil), l.P...),
		SortDim:     l.SortDim,
		OutlierFrac: l.OutlierFrac,
	}
}

// GridDims returns the dims that participate in the grid (not mapped, not
// the sort dim), in dimension order — the row-major cell ordering.
func (l Layout) GridDims() []int {
	var out []int
	for i, st := range l.Skeleton {
		if st.Kind == Mapped || i == l.SortDim {
			continue
		}
		out = append(out, i)
	}
	return out
}

// NumCells returns the total cell count ∏ P[i] over grid dims.
func (l Layout) NumCells() int {
	n := 1
	for _, d := range l.GridDims() {
		n *= l.P[d]
	}
	return n
}

// Validate checks the skeleton and that the sort dim is not mapped or used
// as a base or target.
func (l Layout) Validate() error {
	if err := l.Skeleton.Validate(); err != nil {
		return err
	}
	if len(l.P) != len(l.Skeleton) {
		return fmt.Errorf("auggrid: %d partition counts for %d dims", len(l.P), len(l.Skeleton))
	}
	if l.SortDim >= len(l.Skeleton) {
		return fmt.Errorf("auggrid: sort dim %d out of range", l.SortDim)
	}
	if l.SortDim >= 0 {
		if l.Skeleton[l.SortDim].Kind != Independent {
			return fmt.Errorf("auggrid: sort dim %d must be independent", l.SortDim)
		}
		for i, st := range l.Skeleton {
			if st.Kind != Independent && st.Other == l.SortDim {
				return fmt.Errorf("auggrid: dim %d references sort dim %d", i, l.SortDim)
			}
		}
	}
	return nil
}

// String renders the layout compactly.
func (l Layout) String() string {
	var b strings.Builder
	b.WriteString(l.Skeleton.String())
	b.WriteString(" P=")
	fmt.Fprintf(&b, "%v", l.P)
	if l.SortDim >= 0 {
		fmt.Fprintf(&b, " sort=d%d", l.SortDim)
	}
	return b.String()
}

// CountKinds returns the number of functional mappings and conditional CDFs
// in the skeleton (reported per region in Tab 4).
func (s Skeleton) CountKinds() (fms, ccdfs int) {
	for _, st := range s {
		switch st.Kind {
		case Mapped:
			fms++
		case Conditional:
			ccdfs++
		}
	}
	return
}
