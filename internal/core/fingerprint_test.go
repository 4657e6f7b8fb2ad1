package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/auggrid"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestLayoutFingerprint pins the layouts seeded builds produce: the store's
// physical row order and every region's layout and cell count, hashed, and
// the index size, as a number. The hash covers what a layout is and the
// size what it costs to hold, so a change to how the index stores a layout
// moves the size alone. The layouts are those of the build path before its
// sorts were rewritten, and the Flood rows those of the Flood build that
// Flood-as-a-variant replaced, so a faster build that moves a single row
// or boundary fails here. The sizes were pinned when the cell table became
// 4-byte offsets. The optimizer prices layouts from their plans without
// scanning, so no kernel tier can move a layout: the same hashes and sizes
// must hold on plain and -tags purego builds.
func TestLayoutFingerprint(t *testing.T) {
	taxi := datasets.Taxi(20000, 1)
	tpch := datasets.TPCH(20000, 1)
	taxiWork := workload.Generate(taxi.Store, workload.TaxiTypes(), 20, 7)
	tpchWork := workload.Generate(tpch.Store, workload.TPCHTypes(), 20, 7)
	cases := []struct {
		name        string
		ds          *datasets.Dataset
		work        []query.Query
		v           Variant
		outlierFrac float64
		want        string
		size        uint64
	}{
		{"taxi/Tsunami", taxi, taxiWork, FullTsunami, 0, "fa40f50a0a8bede9", 8840},
		{"taxi/AugGrid-only", taxi, taxiWork, AugGridOnly, 0, "1f140eb0e4d154eb", 2980},
		{"taxi/GridTree-only", taxi, taxiWork, GridTreeOnly, 0, "2976c102d8c4aa1f", 8792},
		{"taxi/Tsunami-outliers", taxi, taxiWork, FullTsunami, 0.02, "e7e9a60e0865dedb", 8968},
		{"tpch/Tsunami", tpch, tpchWork, FullTsunami, 0, "9dc5e94ffac49450", 3744},
		{"tpch/AugGrid-only", tpch, tpchWork, AugGridOnly, 0, "7c73e60b573ba09a", 3060},
		{"tpch/GridTree-only", tpch, tpchWork, GridTreeOnly, 0, "57f089610fb675f6", 3664},
		{"taxi/Flood", taxi, taxiWork, Flood, 0, "87b29367b0d57bc6", 2692},
		{"tpch/Flood", tpch, tpchWork, Flood, 0, "3568c34200f4df29", 2532},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Variant: c.v,
				Grid: auggrid.OptimizeConfig{
					Eval:        auggrid.EvalConfig{SampleSize: 512, MaxQueries: 20},
					MaxIters:    2,
					OutlierFrac: c.outlierFrac,
					Seed:        1,
				},
			}
			idx := Build(c.ds.Store, c.work, cfg)
			if got := layoutFingerprint(idx); got != c.want {
				t.Errorf("layout fingerprint %s, want %s\n%s", got, c.want, idx.DebugRegions())
			}
			if got := idx.SizeBytes(); got != c.size {
				t.Errorf("index size %d bytes, want %d", got, c.size)
			}
		})
	}
}

// layoutFingerprint hashes the physical store order and DebugRegions of a
// built index.
func layoutFingerprint(t *Tsunami) string {
	h := fnv.New64a()
	var buf [8]byte
	st := t.Store()
	for j := 0; j < st.NumDims(); j++ {
		for _, v := range st.Column(j) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	h.Write([]byte(t.DebugRegions()))
	return fmt.Sprintf("%016x", h.Sum64())
}
