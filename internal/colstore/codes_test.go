package colstore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/query"
)

// TestCodedMask8Exhaustive checks the portable coded compare on every
// code against every byte range [lo, lo+width], the lane each code lands
// in rotating with the range.
func TestCodedMask8Exhaustive(t *testing.T) {
	var buf [256]byte
	for i := range buf {
		buf[i] = byte(i)
	}
	for lo := 0; lo < 256; lo++ {
		for width := 0; width < 256; width++ {
			l, w := uint64(lo)*lanes1, uint64(width)*lanes1
			rot := (lo + width) % 8
			for k := 0; k < 256; k += 8 {
				var x [8]byte
				for b := range x {
					x[b] = buf[(k+b+rot)%256]
				}
				m := codedMask8(binary.LittleEndian.Uint64(x[:]), l, w)
				for b, c := range x {
					want := uint8(c-uint8(lo)) <= uint8(width)
					if got := m>>(8*b+7)&1 == 1; got != want || m>>(8*b)&0x7f != 0 {
						t.Fatalf("code %d in lane %d, range [%d, %d+%d]: mask %016x", c, b, lo, lo, width, m)
					}
				}
			}
		}
	}
}

// TestPrepareChoosesCoded pins when a query reads the byte images: only
// when every filter is on a column of at most 256 values, with a filter
// over a whole span dropped and one missing a span emptying the query,
// and an image is built only for a query that reads it.
func TestPrepareChoosesCoded(t *testing.T) {
	const n = 1000
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := range n {
		cols[0][i] = 100 + int64(i%256) // 256 values: coded
		cols[1][i] = int64(i % 7)       // 7 values: coded
		cols[2][i] = int64(i * 1000)    // wide
	}
	s, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetCoded(true)
	defer SetCoded(prev)

	mixed := s.prepare(query.NewCount(query.Filter{Dim: 0, Lo: 120, Hi: 200}, query.Filter{Dim: 2, Lo: 0, Hi: 5000}))
	if mixed.kind != scanWide {
		t.Fatalf("a query with a wide filter prepared as %d, want the int64 kernels", mixed.kind)
	}
	for d := range cols {
		if m := s.meta[d].Load(); m != nil && m.codes != nil {
			t.Fatalf("the mixed query built column %d's image", d)
		}
	}

	for _, c := range []struct {
		q     query.Query
		kind  scanKind
		n     int
		codes []int // columns with an image afterwards
	}{
		{query.NewCount(query.Filter{Dim: 0, Lo: 120, Hi: 200}), scanCoded, 1, []int{0}},
		{query.NewCount(query.Filter{Dim: 0, Lo: math.MinInt64, Hi: math.MaxInt64}, query.Filter{Dim: 1, Lo: 2, Hi: 2}), scanCoded, 1, []int{0, 1}},
		{query.NewCount(query.Filter{Dim: 1, Lo: -5, Hi: 6}), scanCoded, 0, []int{0, 1}},
		{query.NewCount(query.Filter{Dim: 1, Lo: 7, Hi: math.MaxInt64}), scanEmpty, 0, []int{0, 1}},
		{query.NewCount(query.Filter{Dim: 2, Lo: 3, Hi: 1}), scanEmpty, 0, []int{0, 1}},
		{query.NewCount(), scanWide, 0, []int{0, 1}},
	} {
		sc := s.prepare(c.q)
		if sc.kind != c.kind || sc.n != c.n {
			t.Errorf("%s: prepared kind %d with %d coded filters, want %d with %d", c.q, sc.kind, sc.n, c.kind, c.n)
		}
		for d := range cols {
			m := s.meta[d].Load()
			if has := m != nil && m.codes != nil; has != slices.Contains(c.codes, d) {
				t.Errorf("after %s: column %d has an image: %v", c.q, d, has)
			}
		}
		var got ScanResult
		sc.scanRange(0, n, false, &got)
		if want := scanTiers(t, s, c.q, 0, n, false); !got.Equal(want) {
			t.Errorf("%s: %+v, want %+v", c.q, got, want)
		}
	}
}

// TestCodedImagesFollowGather pins the byte images' invalidation: a coded
// query that built the images must answer from the new rows after a
// permuting Gather rewrote the store's columns in place.
func TestCodedImagesFollowGather(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 3000
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := range n {
		cols[0][i], cols[1][i], cols[2][i] = rng.Int63n(40), rng.Int63n(200), rng.Int63n(1e6)
	}
	src, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := src.Gather(rng.Perm(n), nil)
	q := query.NewSum(2, query.Filter{Dim: 0, Lo: 5, Hi: 20}, query.Filter{Dim: 1, Lo: 50, Hi: 150})
	scanTiers(t, s, q, 0, n, false)
	if g := src.Gather(rng.Perm(n), s); g != s {
		t.Fatal("the gather did not reuse the coded store")
	}
	scanTiers(t, s, q, 0, n, false)
	scanTiers(t, s, q, 17, 2049, false)
}

// TestCodedImagesConcurrentFirstUse has readers race to build one fresh
// store's spans and images (flat and grouped, coded and mixed queries)
// and checks every answer against the scalar oracle: the per-column
// slots are published atomically and concurrent builders agree.
func TestCodedImagesConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 4000
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := range n {
		cols[0][i], cols[1][i], cols[2][i], cols[3][i] = rng.Int63n(30), rng.Int63n(250)-125, rng.Int63n(1e9), rng.Int63n(12)
	}
	queries := []query.Query{
		query.NewCount(query.Filter{Dim: 0, Lo: 3, Hi: 17}),
		query.NewSum(2, query.Filter{Dim: 0, Lo: 3, Hi: 17}, query.Filter{Dim: 1, Lo: -40, Hi: 90}),
		query.NewCount(query.Filter{Dim: 1, Lo: 0, Hi: 0}, query.Filter{Dim: 2, Lo: 0, Hi: 5e8}),
		query.NewCount(query.Filter{Dim: 1, Lo: -40, Hi: 90}).By(3),
		query.NewSum(2, query.Filter{Dim: 0, Lo: 1, Hi: 28}).By(0),
	}
	for round := 0; round < 5; round++ {
		s, err := FromColumns(cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range queries {
					q := queries[(k+g)%len(queries)]
					var got, want ScanResult
					if q.Grouped() {
						acc := NewGroupAccumulator(q, s)
						scanGrouped(s, q, 5, n-3, false, acc)
						got = acc.Result()
						s.ScanRangeGroupedScalar(q, 5, n-3, false, &want)
						got.Regime, want.Regime = RegimeNone, RegimeNone
					} else {
						s.ScanRanges(q, []Range{{Start: 5, End: 700}, {Start: 700, End: n - 3}}, &got, nil)
						s.ScanRangeScalar(q, 5, 700, false, &want)
						s.ScanRangeScalar(q, 700, n-3, false, &want)
					}
					if !got.Equal(want) {
						t.Errorf("goroutine %d, %s: %+v, want %+v", g, q, got, want)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// groupedTiers is scanTiers for a grouped query: every tier with the
// coded dispatch on and off, through a prepared plan, against the
// row-at-a-time grouped oracle.
func groupedTiers(t *testing.T, s *Store, q query.Query, start, end int, exact bool) {
	t.Helper()
	var want GroupedResult
	s.ScanRangeGroupedScalar(q, start, end, exact, &want)
	prevSIMD, prevCoded := SetSIMD(false), SetCoded(false)
	defer func() { SetSIMD(prevSIMD); SetCoded(prevCoded) }()
	for _, simd := range []bool{false, true} {
		for _, coded := range []bool{false, true} {
			SetSIMD(simd)
			SetCoded(coded)
			acc := NewGroupAccumulator(q, s)
			s.ScanRanges(q, []Range{{Start: start, End: end, Exact: exact}}, nil, acc)
			got := acc.Result()
			if got.Count != want.Count || got.Sum != want.Sum || !slices.Equal(got.Groups, want.Groups) ||
				got.PointsScanned != want.PointsScanned || got.BytesTouched != want.BytesTouched {
				t.Fatalf("%s grouped (coded %v) %+v != scalar %+v\nq=%s start=%d end=%d exact=%v",
					KernelName(), coded, got, want, q, start, end, exact)
			}
		}
	}
}

// FuzzScanTiers drives random stores — two coded columns anchored
// anywhere in the int64 domain, a wide column, an aggregate and a group
// column — through every kernel tier, with the coded dispatch on and off,
// against the scalar oracles: flat COUNT and SUM, coded-only and mixed
// filters, and grouped COUNT and SUM. The fuzzer picks one filter's
// bounds outright (out of span, equal, inverted, int64 extremes) and the
// range, down to a few rows from any start.
func FuzzScanTiers(f *testing.F) {
	f.Add(int64(1), int64(10), int64(20), uint16(0), uint16(100))
	f.Add(int64(2), int64(math.MinInt64), int64(math.MaxInt64), uint16(3), uint16(2))
	f.Add(int64(3), int64(5), int64(5), uint16(63), uint16(31))
	f.Add(int64(4), int64(30), int64(-30), uint16(1), uint16(70))
	f.Add(int64(5), int64(1000), int64(2000), uint16(200), uint16(500))
	f.Add(int64(6), int64(math.MaxInt64-20), int64(math.MaxInt64), uint16(7), uint16(3))
	f.Fuzz(func(t *testing.T, seed, lo, hi int64, start, length uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(700)
		bases := []int64{0, -100, math.MinInt64, math.MaxInt64 - 255, rng.Int63() - 1<<62}
		base0, base1 := bases[rng.Intn(len(bases))], bases[rng.Intn(len(bases))]
		span0, span1 := 1+rng.Int63n(256), 1+rng.Int63n(256)
		groupSpan := []int64{1, 8, 32, 33, 256, 5000}[rng.Intn(6)]
		cols := make([][]int64, 5)
		for j := range cols {
			cols[j] = make([]int64, n)
		}
		for i := range n {
			cols[0][i] = base0 + rng.Int63n(span0)
			cols[1][i] = base1 + rng.Int63n(span1)
			cols[2][i] = int64(rng.Uint64())
			cols[3][i] = rng.Int63n(2001) - 1000
			cols[4][i] = rng.Int63n(groupSpan)
		}
		s, err := FromColumns(cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		f0 := query.Filter{Dim: 0, Lo: lo, Hi: hi}
		a, b := base1+rng.Int63n(span1), base1+rng.Int63n(span1)
		if a > b && rng.Intn(4) != 0 {
			a, b = b, a
		}
		f1 := query.Filter{Dim: 1, Lo: a, Hi: b}
		wide := query.Filter{Dim: 2, Lo: int64(rng.Uint64()) / 2, Hi: math.MaxInt64}
		s0 := int(start) % (n + 1)
		e0 := s0 + int(length)%(n+1-s0)
		exact := rng.Intn(8) == 0
		for _, q := range []query.Query{
			query.NewCount(f0),
			query.NewCount(f0, f1),
			query.NewSum(3, f0, f1),
			query.NewSum(3, f1, wide),
		} {
			scanTiers(t, s, q, s0, e0, exact)
			groupedTiers(t, s, q.By(4), s0, e0, exact)
		}
	})
}
