package core

// Differential coverage for the spill partitioner: a frontier's spilled
// sets must size bit-identically through its one partition pass (one
// dataset scan, spill.MultiWriter), through budgeted one-set
// LabelSizesFused calls (one one-target pass each) and through the
// sequential LabelSize oracle — for every worker count, across the cap
// grid, for byte and uint64 record formats, for frontiers mixing both with
// in-memory sets and for a frontier whose pass has a single target. The
// pass is pure plumbing: each target's runs hold exactly its records and
// counting is unchanged, so any divergence here is a routing bug.

import (
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// sharedSpillFrontier builds a frontier of attribute sets and the caps to
// sweep from their exact sizes: the unbounded/at-zero edges plus caps
// straddling the smallest and largest frontier sizes.
func sharedSpillCaps(d *dataset.Dataset, sets []lattice.AttrSet) []int {
	minSz, maxSz := int(^uint(0)>>1), 0
	for _, s := range sets {
		sz, _ := LabelSize(d, s, -1)
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	return []int{-1, 0, 1, minSz - 1, minSz, maxSz - 1, maxSz, maxSz + 1}
}

// runSharedSpillDifferential sizes the frontier whole (LabelSizesFused)
// and set by set (budgeted one-set LabelSizesFused) across the worker and cap
// grids, comparing every result to the sequential oracle and asserting the
// pass accounting. wantSpilled is the number of frontier sets the spill
// plan must route to disk; a pass counts as shared only when it serves two
// or more of them.
func runSharedSpillDifferential(t *testing.T, d *dataset.Dataset, sets []lattice.AttrSet, budget int64, wantSpilled int, wantBothFormats bool) {
	t.Helper()
	caps := sharedSpillCaps(d, sets)
	type oracleRes struct {
		size   int
		within bool
	}
	oracle := make(map[int][]oracleRes, len(caps))
	for _, cap := range caps {
		res := make([]oracleRes, len(sets))
		for i, s := range sets {
			sz, w := LabelSize(d, s, cap)
			res[i] = oracleRes{sz, w}
		}
		oracle[cap] = res
	}
	wantPasses, wantSaved := int64(0), int64(0)
	if wantSpilled > 1 {
		wantPasses, wantSaved = 1, int64(wantSpilled-1)
	}
	for _, workers := range diffWorkerCounts {
		for _, cap := range caps {
			for _, single := range []bool{false, true} {
				dir := t.TempDir()
				var stats ScanStats
				opts := testCountOptions(workers)
				opts.MemBudget = budget
				opts.SpillDir = dir
				opts.Stats = &stats
				sizes := make([]int, len(sets))
				within := make([]bool, len(sets))
				if single {
					for i, s := range sets {
						sz, w, err := LabelSizesFused(d, []lattice.AttrSet{s}, cap, opts)
						if err != nil {
							t.Fatalf("workers=%d cap=%d set %v: %v", workers, cap, s, err)
						}
						sizes[i], within[i] = sz[0], w[0]
					}
				} else {
					sizes, within = mustLabelSizes(t, d, sets, cap, opts)
				}
				for i := range sets {
					want := oracle[cap][i]
					if sizes[i] != want.size || within[i] != want.within {
						t.Fatalf("workers=%d cap=%d single=%v set %v: (%d,%v), oracle (%d,%v)",
							workers, cap, single, sets[i], sizes[i], within[i], want.size, want.within)
					}
				}
				if stats.Spilled != int64(wantSpilled) || stats.SpillFallbacks != 0 {
					t.Fatalf("workers=%d cap=%d single=%v: Spilled=%d Fallbacks=%d, want %d spilled",
						workers, cap, single, stats.Spilled, stats.SpillFallbacks, wantSpilled)
				}
				if wantBothFormats && (stats.SpilledU64 == 0 || stats.SpilledU64 == stats.Spilled) {
					t.Fatalf("workers=%d cap=%d single=%v: SpilledU64=%d of %d, want both formats",
						workers, cap, single, stats.SpilledU64, stats.Spilled)
				}
				if single {
					if stats.SharedSpillPasses != 0 || stats.SpillPassesSaved != 0 {
						t.Fatalf("single-set passes recorded as shared: %d/%d",
							stats.SharedSpillPasses, stats.SpillPassesSaved)
					}
				} else if stats.SharedSpillPasses != wantPasses || stats.SpillPassesSaved != wantSaved {
					t.Fatalf("workers=%d cap=%d: SharedSpillPasses=%d SpillPassesSaved=%d, want %d/%d",
						workers, cap, stats.SharedSpillPasses, stats.SpillPassesSaved, wantPasses, wantSaved)
				}
				assertNoSpillFiles(t, dir)
			}
		}
	}
}

// TestDifferentialSharedSpillMixedFrontier exercises a frontier mixing
// byte-record spilled sets (5-subsets and the full set of 6 attributes at
// domain 65000: keys overflow uint64), uint64-record spilled sets (pairs
// and a singleton: uint64-keyable, beyond the dense tier, over budget) and
// one in-memory set (the empty set is dense-keyable and joins the fused
// scan) — the shape where the shared pass must route two record widths
// through one scan without mixing up a single record.
func TestDifferentialSharedSpillMixedFrontier(t *testing.T) {
	cfg := diffConfig{rows: 2500, attrs: 6, domain: 65000, nullRate: 0.1}
	d := diffDataset(t, cfg, 0x88)
	full := lattice.FullSet(cfg.attrs)
	sets := []lattice.AttrSet{0, full, lattice.NewAttrSet(0)}
	for i := 0; i < cfg.attrs; i++ {
		sets = append(sets, full.Remove(i))
	}
	sets = append(sets,
		lattice.NewAttrSet(0).Add(1),
		lattice.NewAttrSet(2).Add(3),
		lattice.NewAttrSet(4).Add(5),
	)
	// A third of one 5-subset's modeled footprint: every map-kernel set in
	// the frontier is over budget; only the empty set stays in memory.
	budget := spillBudgetFor(d, full.Remove(0), 3)
	runSharedSpillDifferential(t, d, sets, budget, len(sets)-1, true)
}

// TestDifferentialSharedSpillU64Frontier pins the pure-uint64 shape: every
// spilled set uses the fixed-width 8-byte record format (3-subsets and the
// full set of 4 attributes at domain 300 all fit uint64 but exceed the
// dense tier and the budget).
func TestDifferentialSharedSpillU64Frontier(t *testing.T) {
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	d := diffDataset(t, cfg, 0x89)
	full := lattice.FullSet(cfg.attrs)
	sets := []lattice.AttrSet{full}
	for i := 0; i < cfg.attrs; i++ {
		sets = append(sets, full.Remove(i))
	}
	budget := spillBudgetFor(d, full.Remove(0), 3)
	var stats ScanStats
	opts := testCountOptions(1)
	opts.MemBudget = budget
	opts.SpillDir = t.TempDir()
	opts.Stats = &stats
	if _, _ = mustLabelSizes(t, d, sets, -1, opts); stats.SpilledU64 != stats.Spilled {
		t.Fatalf("frontier not pure uint64: %d of %d spilled sets", stats.SpilledU64, stats.Spilled)
	}
	runSharedSpillDifferential(t, d, sets, budget, len(sets), false)
}

// TestDifferentialSharedSpillLoneSet pins the one-target pass: a frontier
// whose only spilled set is the byte-key full set (6 attributes at domain
// 65000 overflow uint64), beside in-memory sets — the empty set (dense),
// a singleton and a pair (uint64 map kernels whose footprint stays under
// the budget). The lone set must size through the same MultiWriter pass
// as a shared frontier and record no shared pass.
func TestDifferentialSharedSpillLoneSet(t *testing.T) {
	cfg := diffConfig{rows: 2500, attrs: 6, domain: 65000, nullRate: 0.1}
	d := diffDataset(t, cfg, 0x8A)
	full := lattice.FullSet(cfg.attrs)
	pair := lattice.NewAttrSet(0).Add(1)
	sets := []lattice.AttrSet{0, lattice.NewAttrSet(2), full, pair}
	if NewKeyer(d, full).Fits() || !NewKeyer(d, pair).Fits() {
		t.Fatal("want a byte-key full set and a uint64-key pair")
	}
	// Between the uint64 map footprint (56 B/row) and the full set's byte
	// footprint (76 B/row): only the full set is over budget.
	budget := int64(cfg.rows) * 64
	runSharedSpillDifferential(t, d, sets, budget, 1, false)
}
