package core

// Allocation-regression pins for the pooled engine (PR 3): steady-state
// batched refinement and pooled dense PC builds must run in a near-constant
// number of small allocations — planning slices and keyer metadata, never
// per-row or per-key-space slabs. The bounds are deliberately loose (2×-ish
// headroom over measured values) so they catch a lost pooling path, not
// compiler noise.

import (
	"runtime"
	"testing"

	"pcbl/internal/lattice"
)

// TestAllocsRefineSizeBatch pins the steady-state allocations of one
// batched sibling pass: after warmup every slab (child accumulators,
// key-block scratch) comes from the pool, leaving only the per-call
// planning slices.
func TestAllocsRefineSizeBatch(t *testing.T) {
	cfg := diffConfig{rows: 5000, attrs: 6, domain: 4, nullRate: 0}
	d := diffDataset(t, cfg, 41)
	parent, ok := LazyRefinable(d, lattice.NewAttrSet(0, 1))
	if !ok {
		t.Fatal("parent not dense-keyable")
	}
	attrs := []int{2, 3, 4, 5}
	opts := CountOptions{Workers: 1, Pool: NewVecPool(0)}
	parent.RefineSizeBatch(d, attrs, -1, opts) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		parent.RefineSizeBatch(d, attrs, -1, opts)
	})
	// Measured ~12 (results + specs + plans + accs + keyer metadata +
	// column table + active list); anything near the child count × key
	// space means pooling broke.
	if allocs > 25 {
		t.Fatalf("RefineSizeBatch allocs/run = %.0f, want <= 25", allocs)
	}
}

// TestAllocsBuildPCParallelPooled pins the pooled dense build: allocations
// stay flat in the worker count up to goroutine bookkeeping, and allocated
// bytes stay near the single result slab — the per-worker full-radix
// shards of the unpooled path must come from the pool.
func TestAllocsBuildPCParallelPooled(t *testing.T) {
	cfg := diffConfig{rows: 20000, attrs: 4, domain: 8, nullRate: 0}
	d := diffDataset(t, cfg, 43)
	full := lattice.FullSet(cfg.attrs)
	pool := NewVecPool(0)
	radix := 8 * 8 * 8 * 8

	var scan ScanStats
	seq := CountOptions{Workers: 1, Pool: pool, Stats: &scan}
	BuildPCParallel(d, full, seq) // warm
	allocs := testing.AllocsPerRun(10, func() {
		BuildPCParallel(d, full, seq)
	})
	// Measured ~9 (PC + result slab + keyer metadata + column table).
	if allocs > 20 {
		t.Fatalf("pooled sequential build allocs/run = %.0f, want <= 20", allocs)
	}

	par := CountOptions{Workers: 4, Pool: pool, Stats: &scan, minRowsPerWorker: 1}
	BuildPCParallel(d, full, par) // warm (populates per-worker shard slabs)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		BuildPCParallel(d, full, par)
	}
	runtime.ReadMemStats(&after)
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / runs
	// The result slab (radix × 4B) dominates; shards and scratch recycle.
	// 3× headroom over it still sits far below the unpooled 4-worker cost
	// (~4 × radix × 4B plus scratch).
	if limit := int64(radix)*4*3 + 8192; perOp > limit {
		t.Fatalf("pooled workers=4 build allocates %d B/op, want <= %d", perOp, limit)
	}
	// These in-memory workloads must never touch the external spill tier
	// (no MemBudget is set, and the key spaces are uint64-bounded anyway).
	if scan.Spilled != 0 || scan.SpillRuns != 0 || scan.SpillBytes != 0 {
		t.Fatalf("in-memory alloc workload spilled: %+v", scan)
	}
}

// TestAllocsRefinePooledSteadyState pins the per-child eager path with a
// pool: a refine-size probe recycles its compact-space slab entirely.
func TestAllocsRefinePooledSteadyState(t *testing.T) {
	cfg := diffConfig{rows: 4000, attrs: 5, domain: 6, nullRate: 0}
	d := diffDataset(t, cfg, 47)
	parent := BuildRefinable(d, lattice.NewAttrSet(0, 2), nil)
	pool := NewVecPool(0)
	parent.RefineSize(d, 4, -1, pool) // warm
	allocs := testing.AllocsPerRun(20, func() {
		parent.RefineSize(d, 4, -1, pool)
	})
	// Measured ~2 (column header + bookkeeping).
	if allocs > 8 {
		t.Fatalf("RefineSize allocs/run = %.0f, want <= 8", allocs)
	}
}
