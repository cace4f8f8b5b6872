package core

import (
	"testing"

	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

func TestPatternsOver(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	ps, err := PatternsOver(d, s, CountOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Example 2.10: exactly 3 positive-count patterns over this set.
	if ps.Len() != 3 {
		t.Fatalf("patterns = %d, want 3", ps.Len())
	}
	for i := 0; i < ps.Len(); i++ {
		if ps.Count(i) != 6 {
			t.Errorf("pattern %d count = %d, want 6", i, ps.Count(i))
		}
		if ps.Attrs(i) != s {
			t.Errorf("pattern %d attrs = %v", i, ps.Attrs(i))
		}
		// Counts agree with a scan.
		if got := CountPattern(d, ps.Pattern(i)); got != ps.Count(i) {
			t.Errorf("pattern %d scan = %d, stored %d", i, got, ps.Count(i))
		}
	}
	if ps.TotalCount() != 18 {
		t.Errorf("total = %d, want 18", ps.TotalCount())
	}
}

func TestCrossProductPatterns(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	ps := CrossProductPatterns(d, s)
	// 2 age groups × 3 marital statuses = 6 combinations.
	if ps.Len() != 6 {
		t.Fatalf("patterns = %d, want 6", ps.Len())
	}
	zeros := 0
	for i := 0; i < ps.Len(); i++ {
		if got := CountPattern(d, ps.Pattern(i)); got != ps.Count(i) {
			t.Errorf("pattern %d: stored %d, scan %d", i, ps.Count(i), got)
		}
		if ps.Count(i) == 0 {
			zeros++
		}
	}
	// The three combinations that never occur (Example 2.10 complement).
	if zeros != 3 {
		t.Errorf("zero-count combinations = %d, want 3", zeros)
	}
}

// TestLabelOptimizedForRestrictedWorkload: optimizing against P_S (the
// "sensitive attributes" use case of Definition 2.15) yields zero error on
// that workload once S fits the bound.
func TestLabelOptimizedForRestrictedWorkload(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "race")
	ps, err := PatternsOver(d, s, CountOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := BuildLabel(d, s)
	res := Evaluate(l, ps, EvalOptions{})
	if res.MaxAbs != 0 {
		t.Errorf("label over the workload's own attrs has max err %v", res.MaxAbs)
	}
}
