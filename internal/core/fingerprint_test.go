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
// physical row order, every region's layout and cell count, and the index
// size. The expected hashes were taken before the build path's sorts were
// rewritten, so a faster build that moves a single row, boundary or byte of
// index fails here. The Flood rows were taken when Flood became a variant of
// this index, after checking its layout and row order against the Flood
// build it replaced. The optimizer prices layouts from their plans without
// scanning, so no kernel tier can move a layout: the same hashes must hold
// on plain and -tags purego builds.
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
	}{
		{"taxi/Tsunami", taxi, taxiWork, FullTsunami, 0, "eaf757387a41c5a5"},
		{"taxi/AugGrid-only", taxi, taxiWork, AugGridOnly, 0, "1557148973f6585f"},
		{"taxi/GridTree-only", taxi, taxiWork, GridTreeOnly, 0, "b2063aa0248c3813"},
		{"taxi/Tsunami-outliers", taxi, taxiWork, FullTsunami, 0.02, "dcff95cf4d88e914"},
		{"tpch/Tsunami", tpch, tpchWork, FullTsunami, 0, "5efa48858a74b602"},
		{"tpch/AugGrid-only", tpch, tpchWork, AugGridOnly, 0, "eb226e784c078221"},
		{"tpch/GridTree-only", tpch, tpchWork, GridTreeOnly, 0, "3e224d9bc731fe0c"},
		{"taxi/Flood", taxi, taxiWork, Flood, 0, "b0653f0e3b21fb98"},
		{"tpch/Flood", tpch, tpchWork, Flood, 0, "722565bce85ca156"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Variant: c.v,
				Grid: auggrid.OptimizeConfig{
					Eval:        auggrid.EvalConfig{SampleSize: 512, MaxQueries: 20, Seed: 1},
					MaxIters:    2,
					OutlierFrac: c.outlierFrac,
					Seed:        1,
				},
			}
			idx := Build(c.ds.Store, c.work, cfg)
			if got := layoutFingerprint(idx); got != c.want {
				t.Errorf("layout fingerprint %s, want %s\n%s", got, c.want, idx.DebugRegions())
			}
		})
	}
}

// layoutFingerprint hashes the physical store order, DebugRegions and
// SizeBytes of a built index.
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
	binary.LittleEndian.PutUint64(buf[:], t.SizeBytes())
	h.Write(buf[:])
	return fmt.Sprintf("%016x", h.Sum64())
}
