package colstore

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
)

// scanTiers runs one ScanRange case through every compiled kernel tier —
// the dispatched SIMD path (when available), the forced-portable path,
// and the scalar oracle — and fails unless all agree exactly on the full
// ScanResult. It is the contract every kernel rewrite must keep.
func scanTiers(t *testing.T, s *Store, q query.Query, start, end int, exact bool) ScanResult {
	t.Helper()
	var want ScanResult
	s.ScanRangeScalar(q, start, end, exact, &want)

	prev := SetSIMD(false)
	var portable ScanResult
	s.ScanRange(q, start, end, exact, &portable)
	SetSIMD(true)
	var dispatched ScanResult
	s.ScanRange(q, start, end, exact, &dispatched)
	SetSIMD(prev)

	if !portable.Equal(want) {
		t.Fatalf("portable %+v != scalar %+v\nq=%s start=%d end=%d exact=%v",
			portable, want, q, start, end, exact)
	}
	if !dispatched.Equal(want) {
		t.Fatalf("%s %+v != scalar %+v\nq=%s start=%d end=%d exact=%v",
			KernelName(), dispatched, want, q, start, end, exact)
	}
	return want
}

// TestScanKernelsMatchScalar is the differential property test guarding the
// fused kernel: for random schemas, data distributions, ranges, and queries
// across every (agg, filter-count, exact) shape — up to 12 filters, past
// the SIMD wrapper's 8 stack slots — the dispatched kernel (AVX2 where
// available), the portable branch-free kernel, and the retained scalar
// oracle ScanRangeScalar must agree exactly.
func TestScanKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	for iter := 0; iter < 300; iter++ {
		d := 1 + rng.Intn(12)
		n := rng.Intn(5000) // includes empty and sub-block stores
		cols := make([][]int64, d)
		for j := range cols {
			cols[j] = randColumn(rng, n)
		}
		s, err := FromColumns(cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		for shape := 0; shape < 8; shape++ {
			nf := rng.Intn(d + 1)
			fs := make([]query.Filter, 0, nf)
			for len(fs) < nf {
				fs = append(fs, randFilter(rng, cols[len(fs)], len(fs)))
			}
			var q query.Query
			if rng.Intn(2) == 0 {
				q = query.NewCount(fs...)
			} else {
				q = query.NewSum(rng.Intn(d), fs...)
			}
			start := rng.Intn(n+2) - 1 // exercise clamping
			end := start + rng.Intn(n+2)
			exact := rng.Intn(4) == 0 // exact asserts a caller guarantee; all tiers must agree regardless
			scanTiers(t, s, q, start, end, exact)
		}
	}
}

// TestScanKernelsUnalignedRanges sweeps [start, end) windows that land on
// every interesting boundary class — the SIMD tier's 4- and 16-row groups
// (every length 0-9 and 15-17), the portable tier's 64-row words, and
// long ranges with ragged tails — because each tier splits a range into
// vector body and scalar tail and the split arithmetic is exactly where
// an off-by-one would hide.
func TestScanKernelsUnalignedRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	const n = 3*1024 + 37 // three full blocks plus a ragged tail
	cols := [][]int64{randColumn(rng, n), randColumn(rng, n), randColumn(rng, n)}
	s, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []query.Query{
		query.NewCount(query.Filter{Dim: 0, Lo: -1 << 30, Hi: 1 << 30}),
		query.NewSum(2, query.Filter{Dim: 0, Lo: -1 << 30, Hi: 1 << 30}),
		query.NewCount(query.Filter{Dim: 0, Lo: -1 << 30, Hi: 1 << 30}, query.Filter{Dim: 1, Lo: 0, Hi: 1 << 38}),
		query.NewSum(2, query.Filter{Dim: 0, Lo: -1 << 30, Hi: 1 << 30}, query.Filter{Dim: 1, Lo: 0, Hi: 1 << 38}),
	}
	starts := []int{0, 1, 63, 64, 65, 511, 1023, 1024, 1025, 2048 - 1, 2048}
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 1000, 1024, 1025, 2047, 2048, n}
	for _, q := range queries {
		for _, start := range starts {
			for _, l := range lengths {
				end := start + l
				if end > n {
					end = n
				}
				scanTiers(t, s, q, start, end, false)
			}
		}
	}
}

// TestSelectWordsMatchesScalar pins the grouped scan's selection stage
// bit for bit: on every tier, for 1-12 filters and every range length
// 1-17 plus the word and buffer boundaries around them, from unaligned
// starts, bit j of word w is set iff row start+64w+j matches every
// filter; the last word's bits past the range are clear; and no word
// past the range's last is written.
func TestSelectWordsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	const n = 2*1024 + 77
	cols := make([][]int64, 12)
	for j := range cols {
		cols[j] = randColumn(rng, n)
	}
	s, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = 0xdeadbeefcafef00d
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 63, 64, 65, 127, 128, 129, 1023, 1024}
	run := func(t *testing.T) {
		for iter := 0; iter < 60; iter++ {
			fs := make([]query.Filter, 1+rng.Intn(12))
			for j := range fs {
				fs[j] = randFilter(rng, cols[j], j)
				if fs[j].Lo > fs[j].Hi { // the stage's callers drop inverted filters
					fs[j].Lo, fs[j].Hi = fs[j].Hi, fs[j].Lo
				}
			}
			for _, l := range lengths {
				start := rng.Intn(n - l + 1)
				end := start + l
				words := (l + 63) / 64
				sel := make([]uint64, words+1)
				for w := range sel {
					sel[w] = sentinel
				}
				s.selectWords(fs, start, end, sel)
				for w := 0; w < words; w++ {
					var want uint64
					for j := 0; j < 64 && start+w*64+j < end; j++ {
						row, ok := start+w*64+j, uint64(1)
						for _, f := range fs {
							if v := cols[f.Dim][row]; v < f.Lo || v > f.Hi {
								ok = 0
							}
						}
						want |= ok << j
					}
					if sel[w] != want {
						t.Fatalf("%s %d filters rows [%d,%d) word %d: %064b, want %064b", KernelName(), len(fs), start, end, w, sel[w], want)
					}
				}
				if sel[words] != sentinel {
					t.Fatalf("%s rows [%d,%d): word %d past the range was written", KernelName(), start, end, words)
				}
			}
		}
	}
	if SIMDAvailable() {
		t.Run("simd", func(t *testing.T) {
			prev := SetSIMD(true)
			defer SetSIMD(prev)
			run(t)
		})
	}
	t.Run("portable", func(t *testing.T) {
		prev := SetSIMD(false)
		defer SetSIMD(prev)
		run(t)
	})
}

// TestScanKernelsDomainEdges pins the unsigned-compare trick at the int64
// domain edges, where the wraparound argument has to hold exactly.
func TestScanKernelsDomainEdges(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	col := make([]int64, 0, 256)
	for len(col) < 200 { // cross a word boundary
		col = append(col, vals[len(col)%len(vals)])
	}
	s, err := FromColumns([][]int64{col, append([]int64(nil), col...), append([]int64(nil), col...)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{math.MinInt64, math.MinInt64 + 1, -2, 0, 2, math.MaxInt64 - 1, math.MaxInt64}
	for _, lo := range bounds {
		for _, hi := range bounds {
			for _, q := range []query.Query{
				query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: hi}),
				query.NewSum(1, query.Filter{Dim: 0, Lo: lo, Hi: hi}),
				query.NewSum(1, query.Filter{Dim: 0, Lo: lo, Hi: hi}, query.Filter{Dim: 1, Lo: math.MinInt64, Hi: math.MaxInt64}),
				query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: hi}, query.Filter{Dim: 1, Lo: math.MinInt64, Hi: 0}),
				query.NewSum(2, query.Filter{Dim: 0, Lo: lo, Hi: hi}, query.Filter{Dim: 1, Lo: -1, Hi: math.MaxInt64}, query.Filter{Dim: 2, Lo: math.MinInt64, Hi: 1}),
			} {
				scanTiers(t, s, q, 0, len(col), false)
			}
		}
	}
}

// TestScanRangeAllocs pins the fused kernel's allocation budget: with up
// to 8 filters the SIMD wrapper's arguments fit its stack array, so a
// scan allocates nothing on either tier.
func TestScanRangeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	cols := make([][]int64, 9)
	for j := range cols {
		cols[j] = randColumn(rng, 1000)
	}
	s, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetSIMD(true)
	defer SetSIMD(prev)
	for k := 1; k <= 8; k++ {
		fs := make([]query.Filter, k)
		for j := range fs {
			fs[j] = query.Filter{Dim: j, Lo: query.NoLo, Hi: query.NoHi}
		}
		for _, q := range []query.Query{query.NewCount(fs...), query.NewSum(8, fs...)} {
			var res ScanResult
			if n := testing.AllocsPerRun(50, func() { s.ScanRange(q, 3, 998, false, &res) }); n != 0 {
				t.Errorf("%s on %s: %v allocations per scan, want 0", q, KernelName(), n)
			}
		}
	}
}

// randColumn draws from distributions that stress different kernel paths:
// dense small domains (high selectivity), wide uniform (sparse), and
// constant runs (all-zero / all-one mask words).
func randColumn(rng *rand.Rand, n int) []int64 {
	col := make([]int64, n)
	switch rng.Intn(4) {
	case 0:
		for i := range col {
			col[i] = int64(rng.Intn(16))
		}
	case 1:
		for i := range col {
			col[i] = rng.Int63n(1<<40) - 1<<39
		}
	case 2:
		v := int64(rng.Intn(100))
		for i := range col {
			if rng.Intn(200) == 0 {
				v = int64(rng.Intn(100))
			}
			col[i] = v
		}
	default:
		for i := range col {
			col[i] = int64(rng.Uint64()) // full domain incl. extremes
		}
	}
	return col
}

// randFilter builds a filter over dim, sometimes unbounded on a side,
// sometimes empty (Lo > Hi), mostly anchored to actual column values so
// selectivities vary.
func randFilter(rng *rand.Rand, col []int64, dim int) query.Filter {
	f := query.Filter{Dim: dim, Lo: query.NoLo, Hi: query.NoHi}
	pick := func() int64 {
		if len(col) == 0 {
			return rng.Int63n(100) - 50
		}
		return col[rng.Intn(len(col))] + rng.Int63n(7) - 3
	}
	switch rng.Intn(6) {
	case 0: // unbounded both sides
	case 1:
		f.Lo = pick()
	case 2:
		f.Hi = pick()
	case 3: // empty range
		f.Lo, f.Hi = 10, -10
	default:
		a, b := pick(), pick()
		if a > b {
			a, b = b, a
		}
		f.Lo, f.Hi = a, b
	}
	return f
}

// benchStore builds the benchmark dataset and its shapes: 1M rows,
// uniform values in [0, 1e6) so filter widths translate directly into
// selectivities.
func benchStore(b *testing.B) (*Store, []BenchShape) {
	b.Helper()
	const n = 1 << 20
	rng := rand.New(rand.NewSource(7))
	cols := make([][]int64, 4)
	for j := range cols {
		c := make([]int64, n)
		for i := range c {
			c[i] = rng.Int63n(1_000_000)
		}
		cols[j] = c
	}
	s, err := FromColumns(cols, nil)
	if err != nil {
		b.Fatal(err)
	}
	return s, KernelBenchShapes(n, 7)
}

// benchScan times scan over every range of each shape.
func benchScan(b *testing.B, shapes []BenchShape, scan func(q query.Query, start, end int, exact bool, res *ScanResult)) {
	for _, sh := range shapes {
		b.Run(sh.Name, func(b *testing.B) {
			b.SetBytes(int64(sh.Rows()) * 8)
			var res ScanResult
			for i := 0; i < b.N; i++ {
				res = ScanResult{}
				for _, r := range sh.Ranges {
					scan(sh.Query, r[0], r[1], false, &res)
				}
			}
			if res.Count == 0 {
				b.Fatal("benchmark query matched nothing")
			}
		})
	}
}

// BenchmarkScanKernels measures single-thread throughput of the
// dispatched kernel (AVX2 where available) on the canonical
// KernelBenchShapes. Every shape is the denominator of CI's two same-run
// ratio gates (benchgate 'BenchmarkScanScalar/BenchmarkScanKernels>=1.5'
// and 'BenchmarkScanKernelsPortable/BenchmarkScanKernels>=1.5').
func BenchmarkScanKernels(b *testing.B) {
	s, shapes := benchStore(b)
	benchScan(b, shapes, s.ScanRange)
}

// BenchmarkScanKernelsPortable is the same suite with SIMD dispatch
// forced off, so the SIMD-vs-portable speedup is measurable within one
// run (benchgate 'BenchmarkScanKernelsPortable/BenchmarkScanKernels>=1.5').
func BenchmarkScanKernelsPortable(b *testing.B) {
	s, shapes := benchStore(b)
	prev := SetSIMD(false)
	defer SetSIMD(prev)
	benchScan(b, shapes, s.ScanRange)
}

// BenchmarkScanScalar is the retained oracle on the same shapes; the ratio
// against BenchmarkScanKernels is the kernel speedup CI holds at >=1.5x
// on every shape.
func BenchmarkScanScalar(b *testing.B) {
	s, shapes := benchStore(b)
	benchScan(b, shapes, s.ScanRangeScalar)
}
