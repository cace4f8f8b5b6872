package core

import (
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// Helpers for engine and read calls whose error can only be a bug in the
// test's setting: the options arm no context and the filesystem injects no
// faults. They fail the test on an error so assertions stay one line.
// Tests that expect an error call the …Ctx forms directly. Call them only
// from the test's own goroutine (they use t.Fatal).

func mustBuildPC(t testing.TB, d *dataset.Dataset, s lattice.AttrSet, opts CountOptions) *PC {
	t.Helper()
	pc, err := BuildPCParallel(d, s, opts)
	if err != nil {
		t.Fatalf("BuildPCParallel(%v): %v", s, err)
	}
	return pc
}

func mustLabelSizes(t testing.TB, d *dataset.Dataset, sets []lattice.AttrSet, cap int, opts CountOptions) ([]int, []bool) {
	t.Helper()
	sizes, within, err := LabelSizesFused(d, sets, cap, opts)
	if err != nil {
		t.Fatalf("LabelSizesFused: %v", err)
	}
	return sizes, within
}

// mustLabelSize sizes one set as a one-set frontier.
func mustLabelSize(t testing.TB, d *dataset.Dataset, s lattice.AttrSet, cap int, opts CountOptions) (int, bool) {
	t.Helper()
	sizes, within := mustLabelSizes(t, d, []lattice.AttrSet{s}, cap, opts)
	return sizes[0], within[0]
}

func mustBuildLabel(t testing.TB, d *dataset.Dataset, s lattice.AttrSet, opts CountOptions) *Label {
	t.Helper()
	l, err := BuildLabelOptsCtx(nil, d, s, opts)
	if err != nil {
		t.Fatalf("BuildLabelOptsCtx(%v): %v", s, err)
	}
	return l
}

func mustLookup(t testing.TB, pc *PC, vals []uint16) int {
	t.Helper()
	c, err := pc.LookupValsCtx(nil, vals)
	if err != nil {
		t.Fatalf("LookupValsCtx: %v", err)
	}
	return c
}

func mustEach(t testing.TB, pc *PC, n int, fn func(vals []uint16, count int) bool) {
	t.Helper()
	if err := pc.EachCtx(nil, n, fn); err != nil {
		t.Fatalf("EachCtx: %v", err)
	}
}

func mustMarginalize(t testing.TB, pc *PC, d *dataset.Dataset, sub lattice.AttrSet) *PC {
	t.Helper()
	m, err := pc.MarginalizeCtx(nil, d, sub)
	if err != nil {
		t.Fatalf("MarginalizeCtx(%v): %v", sub, err)
	}
	return m
}
