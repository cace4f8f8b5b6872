package core

// Differential coverage for batched sibling refinement: RefineBatch /
// RefineSizeBatch must agree exactly with the per-child Refine/RefineSize
// path and with sequential LabelSize — sizes, cap-abort verdicts at the
// boundary values, and materialized child contents against naive BuildPC —
// across randomized datasets, eager and lazy parents (including byte-key
// fallback parents), with and without the pool, for workers 1, 2 and 8.

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
// per-child RefineSize and the sequential LabelSize across the cap grid,
// for eager and lazy parents and every worker count.
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
								if res[j].Child != nil {
									t.Fatalf("%s parent %v+%d: size-only batch returned a child", form, s, a)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestDifferentialRefineBatchBuild: children materialized by the batch
// pass must reproduce BuildPC bit-identically, and must themselves serve
// as parents for the next batched level (the lazy chain the frontier
// scheduler walks).
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
			// Walk two lattice levels through built lazy children.
			specs := make([]BatchSpec, cfg.attrs)
			for a := 0; a < cfg.attrs; a++ {
				specs[a] = BatchSpec{Attr: a, Build: true}
			}
			for _, workers := range diffWorkerCounts {
				opts := testCountOptions(workers)
				opts.Pool = pool
				singles, err := root.RefineBatch(d, specs, -1, opts)
				if err != nil {
					t.Fatal(err)
				}
				for a, res := range singles {
					s := lattice.NewAttrSet(a)
					want := BuildPC(d, s)
					if res.Size != want.Size() {
						t.Fatalf("single %d workers=%d: size %d, want %d", a, workers, res.Size, want.Size())
					}
					if res.Child == nil {
						continue // not buildable in slot form (e.g. huge domain)
					}
					pcEqual(t, want, res.Child.PC(d))
					// Second level: the built child as a lazy batch parent.
					var childSpecs []BatchSpec
					for _, b := range nonMembers(s, cfg.attrs) {
						if b > a {
							childSpecs = append(childSpecs, BatchSpec{Attr: b, Build: true})
						}
					}
					if len(childSpecs) == 0 {
						continue
					}
					pairs, err := res.Child.RefineBatch(d, childSpecs, -1, opts)
					if err != nil {
						t.Fatal(err)
					}
					for j, pres := range pairs {
						ps := s.Add(childSpecs[j].Attr)
						pwant := BuildPC(d, ps)
						if pres.Size != pwant.Size() {
							t.Fatalf("pair %v workers=%d: size %d, want %d", ps, workers, pres.Size, pwant.Size())
						}
						if pres.Child != nil {
							pcEqual(t, pwant, pres.Child.PC(d))
							pres.Child.Release(pool)
						}
					}
					res.Child.Release(pool)
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

// TestRefineLazyParentFallback pins the per-child entry points on a lazy
// parent: Refine must route through the batch kernel (building through a
// raw scan when slot form is unavailable), bit-identical to BuildPC.
func TestRefineLazyParentFallback(t *testing.T) {
	cfg := diffConfig{rows: 1200, attrs: 5, domain: 5, nullRate: 0.1}
	d := diffDataset(t, cfg, 29)
	parentSet := lattice.NewAttrSet(1, 3)
	lazy, ok := LazyRefinable(d, parentSet)
	if !ok {
		t.Fatal("parent unexpectedly not dense-keyable")
	}
	// Attribute above the max member: lazy slot-keyed child.
	child, size, within := lazy.Refine(d, 4, -1, nil)
	want, _ := LabelSize(d, parentSet.Add(4), -1)
	if !within || size != want || child == nil {
		t.Fatalf("lazy refine +4: (%d, %v, child=%v), want (%d, true, non-nil)", size, within, child != nil, want)
	}
	pcEqual(t, BuildPC(d, parentSet.Add(4)), child.PC(d))
	// Attribute below the max member breaks the slot-key chain: the build
	// falls back to a raw scan but must stay bit-identical.
	child0, size0, within0 := lazy.Refine(d, 0, -1, nil)
	want0, _ := LabelSize(d, parentSet.Add(0), -1)
	if !within0 || size0 != want0 || child0 == nil {
		t.Fatalf("lazy refine +0: (%d, %v, child=%v), want (%d, true, non-nil)", size0, within0, child0 != nil, want0)
	}
	pcEqual(t, BuildPC(d, parentSet.Add(0)), child0.PC(d))
	// RefineFrom accepts a lazy parent.
	pc, ok := RefineFrom(d, lazy, parentSet.Add(2))
	if !ok {
		t.Fatal("RefineFrom rejected a lazy parent")
	}
	pcEqual(t, BuildPC(d, parentSet.Add(2)), pc)
	// Cap abort on the lazy path keeps the LabelSize contract.
	if size, within := lazy.RefineSize(d, 4, 0, nil); within || size != 1 {
		t.Fatalf("lazy RefineSize cap=0: (%d, %v), want (1, false)", size, within)
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
