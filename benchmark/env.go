package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/colstore"
)

// envInfo is what a result must carry to be compared with another: numbers
// from different nproc, kernel tier, rows or window are not comparable.
type envInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	WarmupS    float64 `json:"warmup_s"`
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	L2Bytes    int64   `json:"l2_bytes"`
	LLCBytes   int64   `json:"llc_bytes"`
	Rows       int     `json:"rows"`
	TableBytes int64   `json:"table_bytes"`
	Residency  string  `json:"residency"`
	Clients    int     `json:"clients"`
	Writers    int     `json:"writers"`
	LayoutSeed int64   `json:"layout_seed"`
	InputHash  string  `json:"input_hash"`

	DistinctQueries int `json:"distinct_queries"`
	FlatPerPass     int `json:"flat_per_pass"`
	GroupedPerPass  int `json:"grouped_per_pass"`
	FloodPerPass    int `json:"flood_per_pass"`

	InputGenS   float64   `json:"input_gen_s"`
	SetupS      []float64 `json:"setup_s"`
	FloodBuildS float64   `json:"flood_build_s"`
	VerifyS     float64   `json:"verify_s"`
	WallS       float64   `json:"wall_s"`

	// Passes holds the per-pass arrays every reported median is taken over,
	// and MAD their median absolute deviations.
	Passes map[string][]float64 `json:"passes"`
	MAD    map[string]float64   `json:"mad"`
	Notes  map[string]float64   `json:"notes"`
}

func newEnv(cfg config, rows, dims int) *envInfo {
	e := &envInfo{
		Workload: cfg.sp.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		WarmupS: cfg.warmup(), Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: colstore.KernelName(),
		L2Bytes: cacheBytes(2), LLCBytes: cacheBytes(3),
		Rows: rows, TableBytes: int64(rows) * int64(dims) * 8,
		Clients: cfg.sp.clients, LayoutSeed: layoutSeed,
		MAD: map[string]float64{}, Notes: map[string]float64{},
	}
	if cfg.sp.writerRowsPerSec > 0 {
		e.Writers = 1
	}
	e.Residency = residency(e.TableBytes, int64(rows)*8, e.L2Bytes, e.LLCBytes)
	return e
}

// residency labels where the table sits. Nothing here claims DRAM: with a
// last-level cache larger than the table every scan is an LLC read, which is
// why bandwidth is reported as a fraction of the in-process naive reference.
func residency(table, column, l2, llc int64) string {
	switch {
	case l2 == 0:
		return "unknown (cache sizes unreadable)"
	case table <= l2:
		return "L2-resident"
	case llc > 0 && table <= llc:
		return fmt.Sprintf("LLC-resident (table %.1fx L2, column %.1fx L2)", float64(table)/float64(l2), float64(column)/float64(l2))
	}
	return "exceeds LLC"
}

// cacheBytes reads cpu0's data or unified cache size at the given level from
// sysfs; 0 when the platform does not say.
func cacheBytes(level int) int64 {
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	for i := 0; i < 8; i++ {
		read := func(name string) string {
			b, _ := os.ReadFile(fmt.Sprintf("%sindex%d/%s", dir, i, name))
			return strings.TrimSpace(string(b))
		}
		if read("level") != strconv.Itoa(level) || read("type") == "Instruction" {
			continue
		}
		s, mult := read("size"), int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n * mult
		}
	}
	return 0
}

// comparable reports why two results must not be compared, or "".
func (e *envInfo) comparable(o *envInfo) string {
	switch {
	case e.Nproc != o.Nproc || e.Gomaxprocs != o.Gomaxprocs:
		return fmt.Sprintf("nproc/GOMAXPROCS differ: %d/%d vs %d/%d", e.Nproc, e.Gomaxprocs, o.Nproc, o.Gomaxprocs)
	case e.Kernel != o.Kernel:
		return fmt.Sprintf("kernel tier differs: %s vs %s", e.Kernel, o.Kernel)
	case e.Rows != o.Rows:
		return fmt.Sprintf("rows differ: %d vs %d", e.Rows, o.Rows)
	case e.Seconds != o.Seconds:
		return fmt.Sprintf("window differs: %gs vs %gs", e.Seconds, o.Seconds)
	}
	return ""
}
