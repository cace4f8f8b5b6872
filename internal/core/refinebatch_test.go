package core

// Differential coverage for batched sibling refinement: RefineSizeBatch
// must agree exactly with sequential LabelSize — sizes and cap-abort
// verdicts at the boundary values — across randomized datasets, eager
// (materialized) and lazy parents (including byte-key parents), with and
// without the pool, for workers 1, 2 and 8.

import (
	"math/rand/v2"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// nonMembers returns the attributes outside s, ascending.
func nonMembers(s lattice.AttrSet, n int) []int {
	var out []int
	for a := 0; a < n; a++ {
		if !s.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// batchParents returns the parent indexes to probe for a set: the eager
// materialized one and, when the set is dense-keyable, the lazy slot-keyed
// one (whose group ids are streamed through the keyer).
func batchParents(t *testing.T, d *dataset.Dataset, s lattice.AttrSet) map[string]*RefinablePC {
	t.Helper()
	parents := map[string]*RefinablePC{}
	if r := BuildRefinable(d, s, nil); r != nil {
		parents["eager"] = r
	}
	if r, ok := LazyRefinable(d, s); ok {
		parents["lazy"] = r
	}
	if len(parents) == 0 {
		t.Fatalf("set %v: no parent form available", s)
	}
	return parents
}

// TestDifferentialRefineSizeBatch: every batched size must equal the
// sequential LabelSize across the cap grid, for eager and lazy parents and
// every worker count.
func TestDifferentialRefineSizeBatch(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xBA7C4))
			pool := NewVecPool(0)
			for _, s := range diffAttrSets(cfg.attrs, rng) {
				attrs := nonMembers(s, cfg.attrs)
				if len(attrs) == 0 {
					continue
				}
				// One representative child picks the cap grid; the batch is
				// probed whole at each cap so siblings abort independently.
				trueSize, _ := LabelSize(d, s.Add(attrs[0]), -1)
				for form, parent := range batchParents(t, d, s) {
					for _, cap := range diffCaps(trueSize) {
						for _, workers := range diffWorkerCounts {
							opts := testCountOptions(workers)
							if workers == 2 {
								opts.Pool = pool // exercise pooled and unpooled paths
							}
							res, err := parent.RefineSizeBatch(d, attrs, cap, opts)
							if err != nil {
								t.Fatal(err)
							}
							for j, a := range attrs {
								wantSize, wantWithin := LabelSize(d, s.Add(a), cap)
								if res[j].Size != wantSize || res[j].Within != wantWithin {
									t.Fatalf("%s parent %v+%d cap=%d workers=%d: got (%d, %v), want (%d, %v)",
										form, s, a, cap, workers, res[j].Size, res[j].Within, wantSize, wantWithin)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestDifferentialRefineBatchBuild walks two lattice levels the way the
// frontier scheduler does: the singletons are sized from the lazy root in
// one batch, and each singleton, built as a materialized parent
// (BuildRefinable, the scheduler's parent build), sizes its gen children
// in one batch next to its lazy form. Every size must equal BuildPC's.
func TestDifferentialRefineBatchBuild(t *testing.T) {
	for ci, cfg := range diffConfigs {
		if cfg.rows == 0 {
			continue
		}
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			pool := NewVecPool(0)
			root, ok := LazyRefinable(d, lattice.AttrSet(0))
			if !ok {
				t.Skip("dataset not dense-keyable at the root")
			}
			all := nonMembers(0, cfg.attrs)
			for _, workers := range diffWorkerCounts {
				opts := testCountOptions(workers)
				opts.Pool = pool
				singles, err := root.RefineSizeBatch(d, all, -1, opts)
				if err != nil {
					t.Fatal(err)
				}
				for a, res := range singles {
					s := lattice.NewAttrSet(a)
					if want := BuildPC(d, s).Size(); res.Size != want || !res.Within {
						t.Fatalf("single %d workers=%d: (%d, %v), want (%d, true)", a, workers, res.Size, res.Within, want)
					}
					var above []int
					for b := a + 1; b < cfg.attrs; b++ {
						above = append(above, b)
					}
					if len(above) == 0 {
						continue
					}
					built := BuildRefinable(d, s, pool)
					for form, parent := range batchParents(t, d, s) {
						if form == "eager" {
							parent = built
						}
						pairs, err := parent.RefineSizeBatch(d, above, -1, opts)
						if err != nil {
							t.Fatal(err)
						}
						for j, pres := range pairs {
							ps := s.Add(above[j])
							if want := BuildPC(d, ps).Size(); pres.Size != want || !pres.Within {
								t.Fatalf("%s pair %v workers=%d: (%d, %v), want (%d, true)", form, ps, workers, pres.Size, pres.Within, want)
							}
						}
					}
					built.Release(pool)
				}
			}
		})
	}
}

// TestRefineBatchByteKeyParent pins the fallback form: a parent whose own
// group-by overflowed uint64 keys (byte-string path) still batch-refines
// through its materialized group vector, with map accumulators for the
// large compact spaces.
func TestRefineBatchByteKeyParent(t *testing.T) {
	cfg := diffConfig{rows: 2000, attrs: 4, domain: 65000, nullRate: 0.1}
	d := diffDataset(t, cfg, 11)
	parentSet := lattice.NewAttrSet(0, 1, 2)
	if k := NewKeyer(d, lattice.FullSet(4)); k.Fits() {
		t.Fatal("expected the full set to overflow uint64 keys")
	}
	parent := BuildRefinable(d, parentSet, nil)
	if _, ok := LazyRefinable(d, parentSet); ok {
		t.Fatal("expected the wide parent to be ineligible for the lazy form")
	}
	trueSize, _ := LabelSize(d, lattice.FullSet(4), -1)
	for _, cap := range diffCaps(trueSize) {
		for _, workers := range diffWorkerCounts {
			res, err := parent.RefineSizeBatch(d, []int{3}, cap, testCountOptions(workers))
			if err != nil {
				t.Fatal(err)
			}
			wantSize, wantWithin := LabelSize(d, lattice.FullSet(4), cap)
			if res[0].Size != wantSize || res[0].Within != wantWithin {
				t.Fatalf("cap=%d workers=%d: got (%d, %v), want (%d, %v)",
					cap, workers, res[0].Size, res[0].Within, wantSize, wantWithin)
			}
		}
	}
}

// TestRefineLazyParentFallback pins a lazy parent refined by attributes on
// both sides of its maximum member (only the ones above it keep the child
// slot-keyed; the kernel must not care) and the cap-abort contract on the
// streamed-key path.
func TestRefineLazyParentFallback(t *testing.T) {
	cfg := diffConfig{rows: 1200, attrs: 5, domain: 5, nullRate: 0.1}
	d := diffDataset(t, cfg, 29)
	parentSet := lattice.NewAttrSet(1, 3)
	lazy, ok := LazyRefinable(d, parentSet)
	if !ok {
		t.Fatal("parent unexpectedly not dense-keyable")
	}
	checkRefineSizes(t, d, lazy, []int{4, 0, 2}, NewVecPool(0))
	res, err := lazy.RefineSizeBatch(d, []int{4}, 0, CountOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Within || res[0].Size != 1 {
		t.Fatalf("lazy cap=0: (%d, %v), want (1, false)", res[0].Size, res[0].Within)
	}
}

// TestRefineBatchPanics documents the programmer-error contract: member
// and duplicate attributes are rejected.
func TestRefineBatchPanics(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 60, attrs: 3, domain: 3, nullRate: 0}, 5)
	r := BuildRefinable(d, lattice.NewAttrSet(0), nil)
	for name, attrs := range map[string][]int{
		"member":    {0},
		"duplicate": {1, 1},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("batch refine with %s attribute must panic", name)
				}
			}()
			r.RefineSizeBatch(d, attrs, -1, CountOptions{Workers: 1})
		})
	}
}
