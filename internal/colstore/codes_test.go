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

// TestPrepareChoosesCoded pins how a query's filters reach the lanes:
// every filter reads its column's narrowest lane, mixed widths in one
// query, with a filter over a whole span dropped, one missing a span or
// inverted emptying the query, and an image built only for a column a
// query filters on; with the narrow lanes off every filter reads its
// int64 column and no image is built.
func TestPrepareChoosesCoded(t *testing.T) {
	const n = 1000
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := range n {
		cols[0][i] = 100 + int64(i%256) // 256 values: 1 byte
		cols[1][i] = int64(i % 7)       // 7 values: 1 byte
		cols[2][i] = int64(i * 1000)    // ~1e6 values: 4 bytes
		cols[3][i] = int64(i) << 40     // wider than 32 bits: the int64 column
	}
	hasImage := func(s *Store, d int) bool { m := s.meta[d].Load(); return m != nil && m.img != nil }
	shifts := func(sc prepared) (out []uint8) {
		for _, f := range sc.lanes() {
			out = append(out, f.shift)
		}
		return out
	}

	off, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetCoded(false)
	mixed := query.NewCount(query.Filter{Dim: 0, Lo: 120, Hi: 200}, query.Filter{Dim: 2, Lo: 0, Hi: 5000}, query.Filter{Dim: 3, Lo: 1 << 41, Hi: 1 << 45})
	if got := shifts(off.prepare(mixed)); !slices.Equal(got, []uint8{3, 3, 3}) {
		t.Errorf("narrow lanes off: prepared lanes %v, want every filter on its int64 column", got)
	}
	SetCoded(true)
	defer SetCoded(prev)
	for d := range cols {
		if hasImage(off, d) {
			t.Fatalf("with the narrow lanes off, column %d got an image", d)
		}
	}

	s, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q      query.Query
		empty  bool
		shifts []uint8
		images []int // columns with an image afterwards
	}{
		{mixed, false, []uint8{0, 2, 3}, []int{0, 2}},
		{query.NewCount(query.Filter{Dim: 0, Lo: math.MinInt64, Hi: math.MaxInt64}, query.Filter{Dim: 1, Lo: 2, Hi: 2}), false, []uint8{0}, []int{0, 1, 2}},
		{query.NewCount(query.Filter{Dim: 1, Lo: -5, Hi: 6}), false, nil, []int{0, 1, 2}},
		{query.NewCount(query.Filter{Dim: 1, Lo: 7, Hi: math.MaxInt64}), true, nil, []int{0, 1, 2}},
		{query.NewCount(query.Filter{Dim: 3, Lo: 3, Hi: 1}), true, nil, []int{0, 1, 2}},
		{query.NewCount(), false, nil, []int{0, 1, 2}},
	} {
		sc := s.prepare(c.q)
		if got := shifts(sc); sc.empty != c.empty || !slices.Equal(got, c.shifts) {
			t.Errorf("%s: prepared empty %v with lanes %v, want %v with %v", c.q, sc.empty, got, c.empty, c.shifts)
		}
		for d := range cols {
			if has := hasImage(s, d); has != slices.Contains(c.images, d) {
				t.Errorf("after %s: column %d has an image: %v", c.q, d, has)
			}
		}
		if want := scanTiers(t, s, c.q, 0, n, false); c.empty && want.Count != 0 {
			t.Errorf("%s: an empty query matched %d rows", c.q, want.Count)
		}
	}
}

// TestPrepareChoosesLane pins the lane thresholds: a column spanning 256
// values reads 1 byte a value and one of 257 reads 2, 65 536 and 65 537
// split 2 from 4 bytes, 2^32 and 2^32+1 split 4 from the int64 column,
// and the whole int64 domain reads the int64 column; every tier answers
// on each lane, with filters at its ends.
func TestPrepareChoosesLane(t *testing.T) {
	for _, c := range []struct {
		base, width uint64 // the column spans width+1 values from base
		shift       uint8
	}{
		{0, 255, 0}, {1 << 60, 256, 1},
		{5, 65535, 1}, {0, 65536, 2},
		{1 << 62, 1<<32 - 1, 2}, {0, 1 << 32, 3},
		{1 << 63, math.MaxUint64, 3},
	} {
		const n = 300
		rng := rand.New(rand.NewSource(int64(c.width)))
		col := make([]int64, n)
		for i := range col {
			v := rng.Uint64()
			if c.width < math.MaxUint64 {
				v %= c.width + 1
			}
			col[i] = int64(c.base + v)
		}
		lo, hi := int64(c.base), int64(c.base+c.width)
		col[17], col[250] = lo, hi
		s, err := FromColumns([][]int64{col, append([]int64(nil), col...)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mid := int64(c.base + c.width/3)
		q := query.NewSum(1, query.Filter{Dim: 0, Lo: lo + 1, Hi: mid})
		sc := s.prepare(q)
		if fs := sc.lanes(); len(fs) != 1 || fs[0].shift != c.shift {
			t.Fatalf("span %d+1 from %d: prepared %+v, want one filter on lane %d", c.width, lo, fs, c.shift)
		}
		for _, f := range []query.Filter{{Dim: 0, Lo: lo, Hi: lo}, {Dim: 0, Lo: hi, Hi: hi}, {Dim: 0, Lo: mid, Hi: hi}, {Dim: 0, Lo: lo + 1, Hi: mid}} {
			for _, q := range []query.Query{query.NewCount(f), query.NewSum(1, f)} {
				scanTiers(t, s, q, 0, n, false)
				scanTiers(t, s, q, 13, 94, false)
				groupedTiers(t, s, q.By(0), 13, 94, false)
			}
		}
	}
}

// TestCodedImagesFollowGather pins the images' invalidation: a query that
// built 1-, 2- and 4-byte images must answer from the new rows after a
// permuting Gather rewrote the store's columns in place.
func TestCodedImagesFollowGather(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 3000
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := range n {
		cols[0][i], cols[1][i], cols[2][i] = rng.Int63n(40), rng.Int63n(200), rng.Int63n(1e6)
		cols[3][i], cols[4][i] = rng.Int63n(30000)-15000, rng.Int63n(3e9)
	}
	src, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := src.Gather(rng.Perm(n), nil)
	queries := []query.Query{
		query.NewSum(2, query.Filter{Dim: 0, Lo: 5, Hi: 20}, query.Filter{Dim: 1, Lo: 50, Hi: 150}),
		query.NewSum(2, query.Filter{Dim: 3, Lo: -9000, Hi: 4000}, query.Filter{Dim: 4, Lo: 5e8, Hi: 2e9}),
	}
	for _, q := range queries {
		scanTiers(t, s, q, 0, n, false)
	}
	if g := src.Gather(rng.Perm(n), s); g != s {
		t.Fatal("the gather did not reuse the coded store")
	}
	for _, q := range queries {
		scanTiers(t, s, q, 0, n, false)
		scanTiers(t, s, q, 17, 2049, false)
	}
}

// TestCodedImagesConcurrentFirstUse has readers race to build one fresh
// store's spans and 1-, 2- and 4-byte images (flat and grouped, one lane
// and mixed lanes)
// and checks every answer against the scalar oracle: the per-column
// slots are published atomically and concurrent builders agree.
func TestCodedImagesConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 4000
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := range n {
		cols[0][i], cols[1][i], cols[2][i], cols[3][i] = rng.Int63n(30), rng.Int63n(250)-125, rng.Int63n(1e9), rng.Int63n(12)
		cols[4][i] = rng.Int63n(40000)
	}
	queries := []query.Query{
		query.NewCount(query.Filter{Dim: 0, Lo: 3, Hi: 17}),
		query.NewSum(2, query.Filter{Dim: 0, Lo: 3, Hi: 17}, query.Filter{Dim: 1, Lo: -40, Hi: 90}),
		query.NewCount(query.Filter{Dim: 1, Lo: 0, Hi: 0}, query.Filter{Dim: 2, Lo: 0, Hi: 5e8}),
		query.NewSum(3, query.Filter{Dim: 4, Lo: 1000, Hi: 30000}, query.Filter{Dim: 2, Lo: 1e8, Hi: 9e8}),
		query.NewCount(query.Filter{Dim: 4, Lo: 100, Hi: 20000}).By(3),
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

// FuzzScanTiers drives random stores — a column on each lane (two of 1
// byte, one of 2 and one of 4, anchored anywhere in the int64 domain,
// and a wide column on the int64 lane), an aggregate and a group column
// — through every kernel tier, with the narrow lanes on and off, against
// the scalar oracles: flat COUNT and SUM, one lane and every lane in one
// query, and grouped COUNT and SUM. The fuzzer picks one filter's bounds
// outright (out of span, equal, inverted, int64 extremes), set on a
// 1-, a 2- and a 4-byte column in turn, and the range, down to a few
// rows from any start.
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
		// Each lane column spans 1..max values from a base anywhere,
		// at an extreme or near zero.
		laneCol := func(max uint64) (base int64, span uint64, col []int64) {
			span = 1 + rng.Uint64()%max
			base = []int64{0, -100, math.MinInt64, int64(math.MaxInt64 - (span - 1)), rng.Int63() - 1<<62}[rng.Intn(5)]
			col = make([]int64, n)
			for i := range col {
				col[i] = base + int64(rng.Uint64()%span)
			}
			return base, span, col
		}
		groupSpan := []int64{1, 8, 32, 33, 256, 5000}[rng.Intn(6)]
		cols := make([][]int64, 7)
		_, _, cols[0] = laneCol(256)
		base1, span1, c1 := laneCol(256)
		cols[1] = c1
		_, _, cols[5] = laneCol(1 << 16)
		_, _, cols[6] = laneCol(1 << 32)
		for j := 2; j <= 4; j++ {
			cols[j] = make([]int64, n)
		}
		for i := range n {
			cols[2][i] = int64(rng.Uint64())
			cols[3][i] = rng.Int63n(2001) - 1000
			cols[4][i] = rng.Int63n(groupSpan)
		}
		s, err := FromColumns(cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, b := base1+int64(rng.Uint64()%span1), base1+int64(rng.Uint64()%span1)
		if a > b && rng.Intn(4) != 0 {
			a, b = b, a
		}
		f1 := query.Filter{Dim: 1, Lo: a, Hi: b}
		pick := func(dim int) query.Filter {
			c := cols[dim]
			x, y := c[rng.Intn(n)], c[rng.Intn(n)]
			return query.Filter{Dim: dim, Lo: min(x, y), Hi: max(x, y)}
		}
		wide := query.Filter{Dim: 2, Lo: int64(rng.Uint64()) / 2, Hi: math.MaxInt64}
		s0 := int(start) % (n + 1)
		e0 := s0 + int(length)%(n+1-s0)
		exact := rng.Intn(8) == 0
		for _, q := range []query.Query{
			query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: hi}),
			query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: hi}, f1),
			query.NewSum(3, query.Filter{Dim: 0, Lo: lo, Hi: hi}, f1),
			query.NewSum(3, f1, wide),
			query.NewCount(query.Filter{Dim: 5, Lo: lo, Hi: hi}, pick(6)),
			query.NewSum(3, pick(5), query.Filter{Dim: 6, Lo: lo, Hi: hi}),
			query.NewSum(3, f1, pick(5), pick(6), wide),
		} {
			scanTiers(t, s, q, s0, e0, exact)
			groupedTiers(t, s, q.By(4), s0, e0, exact)
		}
	})
}
