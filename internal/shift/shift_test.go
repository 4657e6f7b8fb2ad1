package shift

import (
	"slices"
	"testing"

	"repro/internal/query"

	"repro/internal/datasets"
	"repro/internal/workload"
)

// interleave reorders Generate's type-blocked output into a round-robin
// stream, as a live mixed workload would arrive.
func interleave(qs []query.Query, numTypes int) []query.Query {
	per := len(qs) / numTypes
	out := make([]query.Query, 0, len(qs))
	for k := 0; k < per; k++ {
		for ty := 0; ty < numTypes; ty++ {
			out = append(out, qs[ty*per+k])
		}
	}
	return out
}

func detectorFixture(t *testing.T) (*Detector, []workload.TypeSpec, *datasets.Dataset) {
	t.Helper()
	ds := datasets.TPCH(20000, 1)
	types := workload.TPCHTypes()
	optimized := workload.Generate(ds.Store, types, 40, 2)
	det := NewDetector(ds.Store, optimized)
	return det, types, ds
}

func TestNoShiftOnSameWorkload(t *testing.T) {
	det, types, ds := detectorFixture(t)
	live := interleave(workload.Generate(ds.Store, types, 52, 99), len(types)) // 260 queries, window 256
	for _, q := range live {
		det.Observe(q)
	}
	rep := det.Analyze()
	if rep.ShiftDetected {
		t.Errorf("false positive: same templates flagged as shift (%+v)", rep)
	}
	if rep.NovelFrac > 0.25 {
		t.Errorf("novel fraction %.2f too high for the same workload", rep.NovelFrac)
	}
}

func TestShiftOnNewQueryTypes(t *testing.T) {
	det, _, ds := detectorFixture(t)
	live := interleave(workload.Generate(ds.Store, workload.TPCHShiftedTypes(), 52, 100), 5)
	for _, q := range live {
		det.Observe(q)
	}
	rep := det.Analyze()
	if !rep.ShiftDetected {
		t.Errorf("missed shift to entirely new query types (%+v)", rep)
	}
}

func TestShiftOnFrequencyChange(t *testing.T) {
	det, types, ds := detectorFixture(t)
	// Replay only the first type, over and over: frequencies drift from
	// 5 balanced types to 1 dominant.
	one := workload.Generate(ds.Store, types[:1], windowSize, 101)
	for _, q := range one {
		det.Observe(q)
	}
	rep := det.Analyze()
	if rep.FreqDrift < 0.3 {
		t.Errorf("frequency drift %.2f too low for a single-type takeover", rep.FreqDrift)
	}
	if !rep.ShiftDetected {
		t.Error("missed frequency-change shift")
	}
	if len(rep.MissingTypes) == 0 {
		t.Error("expected missing types to be reported")
	}
}

func TestNoTriggerBeforeMinObserved(t *testing.T) {
	det, _, ds := detectorFixture(t)
	live := workload.Generate(ds.Store, workload.TPCHShiftedTypes(), 2, 102)
	for _, q := range live {
		det.Observe(q)
	}
	if det.Analyze().ShiftDetected {
		t.Error("triggered before half a window was observed")
	}
}

func TestObserveReturnsTypeMatch(t *testing.T) {
	det, types, ds := detectorFixture(t)
	same := workload.Generate(ds.Store, types, 5, 103)
	matched := 0
	for _, q := range same {
		if det.Observe(q) >= 0 {
			matched++
		}
	}
	if matched < len(same)*3/4 {
		t.Errorf("only %d/%d same-template queries matched a type", matched, len(same))
	}
	if det.NumTypes() < 4 {
		t.Errorf("detector fingerprinted %d types, want ≈5", det.NumTypes())
	}
}

func TestWindowSlides(t *testing.T) {
	det, types, ds := detectorFixture(t)
	// Fill the window with shifted queries, then flush it with original
	// ones: the report must recover.
	shifted := workload.Generate(ds.Store, workload.TPCHShiftedTypes(), 52, 104)
	for _, q := range shifted {
		det.Observe(q)
	}
	if !det.Analyze().ShiftDetected {
		t.Fatal("setup: shift not detected")
	}
	orig := interleave(workload.Generate(ds.Store, types, 60, 105), len(types))
	for _, q := range orig {
		det.Observe(q)
	}
	rep := det.Analyze()
	if rep.ShiftDetected {
		t.Errorf("window did not slide back to normal (%+v)", rep)
	}
}

// TestRecentIsTheWindow checks that Recent returns the window's queries,
// oldest first, before and after the window wraps.
func TestRecentIsTheWindow(t *testing.T) {
	det, types, ds := detectorFixture(t)
	stream := workload.Generate(ds.Store, types, 60, 106) // 300 queries, window 256
	for i, q := range stream {
		det.Observe(q)
		n := min(i+1, windowSize)
		got := det.Recent()
		if len(got) != n || !slices.Equal(got[0].Filters, stream[i+1-n].Filters) || !slices.Equal(got[n-1].Filters, stream[i].Filters) {
			t.Fatalf("after %d observations Recent has %d queries, want the last %d oldest first", i+1, len(got), n)
		}
	}
}
