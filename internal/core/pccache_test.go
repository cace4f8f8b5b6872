package core

// Differential coverage for parent-PC reuse: refinement chains from the
// empty set must reproduce BuildPC bit-identically at every lattice step
// (including byte-key attribute sets and cap-abort boundaries), and
// PC.MarginalizeCtx — the inverse direction — must match a raw group-by of
// the sub-set on NULL-free data. PCCache coverage pins the memory budget
// and level-eviction behaviour.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// TestDifferentialRefinableMatchesBuildPC: a raw-built RefinablePC must
// materialize exactly BuildPC's index for every dataset shape and set.
func TestDifferentialRefinableMatchesBuildPC(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0x4EF1))
			for _, s := range diffAttrSets(cfg.attrs, rng) {
				r := BuildRefinable(d, s, nil)
				if r == nil {
					t.Fatalf("set %v: BuildRefinable returned nil", s)
				}
				want := BuildPC(d, s)
				if r.Groups() != want.Size() {
					t.Fatalf("set %v: Groups %d, BuildPC size %d", s, r.Groups(), want.Size())
				}
				pcEqual(t, want, r.PC(d))
			}
		})
	}
}

// TestDifferentialRefineChain: refine attribute by attribute from the
// empty set in randomized orders; every intermediate index must match
// BuildPC, and every RefineSize must match sequential LabelSize across the
// cap grid, including the byte-key dataset shape.
func TestDifferentialRefineChain(t *testing.T) {
	for ci, cfg := range diffConfigs {
		if cfg.rows == 0 {
			continue // covered by TestRefineEmptyAndDegenerate
		}
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xC4A1))
			for trial := 0; trial < 3; trial++ {
				order := rng.Perm(cfg.attrs)
				cur := BuildRefinable(d, lattice.AttrSet(0), nil)
				attrs := lattice.AttrSet(0)
				for _, a := range order {
					trueSize, _ := LabelSize(d, attrs.Add(a), -1)
					for _, cap := range diffCaps(trueSize) {
						wantSize, wantWithin := LabelSize(d, attrs.Add(a), cap)
						gotSize, gotWithin := cur.RefineSize(d, a, cap, nil)
						if gotSize != wantSize || gotWithin != wantWithin {
							t.Fatalf("refine %v+%d cap=%d: got (%d, %v), want (%d, %v)",
								attrs, a, cap, gotSize, gotWithin, wantSize, wantWithin)
						}
					}
					child, size, within := cur.Refine(d, a, -1, nil)
					if !within || size != trueSize {
						t.Fatalf("refine %v+%d: size %d within %v, want %d", attrs, a, size, within, trueSize)
					}
					attrs = attrs.Add(a)
					pcEqual(t, BuildPC(d, attrs), child.PC(d))
					cur = child
				}
			}
		})
	}
}

// TestRefineFromAPI pins the public entry point: one-attribute extensions
// are served from the parent's groups bit-identically to BuildPC; anything
// else reports ok=false.
func TestRefineFromAPI(t *testing.T) {
	cfg := diffConfig{rows: 1500, attrs: 5, domain: 6, nullRate: 0.1}
	d := diffDataset(t, cfg, 17)
	parentSet := lattice.NewAttrSet(0, 2)
	parent := BuildRefinable(d, parentSet, nil)
	pc, ok := RefineFrom(d, parent, parentSet.Add(4))
	if !ok {
		t.Fatal("RefineFrom rejected a one-attribute extension")
	}
	pcEqual(t, BuildPC(d, parentSet.Add(4)), pc)
	if _, ok := RefineFrom(d, parent, parentSet.Add(3).Add(4)); ok {
		t.Error("RefineFrom accepted a two-attribute extension")
	}
	if _, ok := RefineFrom(d, parent, lattice.NewAttrSet(1, 3)); ok {
		t.Error("RefineFrom accepted a non-superset")
	}
	if _, ok := RefineFrom(d, parent, parentSet); ok {
		t.Error("RefineFrom accepted the parent set itself")
	}
	if _, ok := RefineFrom(d, nil, parentSet.Add(4)); ok {
		t.Error("RefineFrom accepted a nil parent")
	}
}

// TestRefineEmptyAndDegenerate covers the edges: empty datasets, an
// attribute with an empty active domain (all NULL), and a parent with no
// groups.
func TestRefineEmptyAndDegenerate(t *testing.T) {
	empty := diffDataset(t, diffConfigs[0], 1) // 0 rows
	r := BuildRefinable(empty, lattice.AttrSet(0), nil)
	if r.Groups() != 0 {
		t.Fatalf("empty dataset root has %d groups, want 0", r.Groups())
	}
	child, size, within := r.Refine(empty, 1, 5, nil)
	if size != 0 || !within || child.Groups() != 0 {
		t.Fatalf("empty refine = (%d, %v, %d groups), want (0, true, 0)", size, within, child.Groups())
	}

	// One attribute entirely NULL: refining by it empties the index.
	bld := dataset.NewBuilder("nulls", "a", "b")
	if _, err := bld.InternValue(0, "x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		bld.AppendIDs(1, dataset.Null)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	root := BuildRefinable(d, lattice.AttrSet(0), nil)
	single, size, _ := root.Refine(d, 0, -1, nil)
	if size != 1 {
		t.Fatalf("singleton size %d, want 1", size)
	}
	allNull, size, within := single.Refine(d, 1, -1, nil)
	if size != 0 || !within {
		t.Fatalf("all-NULL refine = (%d, %v), want (0, true)", size, within)
	}
	pcEqual(t, BuildPC(d, lattice.NewAttrSet(0, 1)), allNull.PC(d))
}

// TestDifferentialMarginalize: on NULL-free data, marginalizing any parent
// index to a subset must equal the raw group-by of the subset — for dense,
// map and byte-key parents, and for dense and map outputs.
func TestDifferentialMarginalize(t *testing.T) {
	for ci, cfg := range diffConfigs {
		if cfg.nullRate > 0 {
			continue // NULL counts are not recoverable from the parent (documented)
		}
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0x3A46))
			parents := []lattice.AttrSet{lattice.FullSet(cfg.attrs)}
			for _, parent := range parents {
				pc := BuildPC(d, parent)
				subs := []lattice.AttrSet{0, lattice.NewAttrSet(0)}
				for len(subs) < 6 {
					var s lattice.AttrSet
					for _, a := range parent.Members() {
						if rng.IntN(2) == 1 {
							s = s.Add(a)
						}
					}
					subs = append(subs, s)
				}
				for _, sub := range subs {
					pcEqual(t, BuildPC(d, sub), mustMarginalize(t, pc, d, sub))
				}
			}
		})
	}
	// Byte-key parent marginalized to a uint64/dense subset.
	wide := diffDataset(t, diffConfig{rows: 800, attrs: 4, domain: 65000, nullRate: 0}, 9)
	parent := BuildPC(wide, lattice.FullSet(4))
	if pcRepr(parent) != "bytes" {
		t.Fatalf("wide parent repr = %s, want bytes", pcRepr(parent))
	}
	for _, sub := range []lattice.AttrSet{lattice.NewAttrSet(0), lattice.NewAttrSet(1, 3)} {
		pcEqual(t, BuildPC(wide, sub), mustMarginalize(t, parent, wide, sub))
	}
}

// TestPCCacheBudget pins admission, duplicate handling and eviction.
func TestPCCacheBudget(t *testing.T) {
	cfg := diffConfig{rows: 400, attrs: 4, domain: 3, nullRate: 0}
	d := diffDataset(t, cfg, 23)
	r0 := BuildRefinable(d, lattice.NewAttrSet(0), nil)
	r1 := BuildRefinable(d, lattice.NewAttrSet(1), nil)
	r01 := BuildRefinable(d, lattice.NewAttrSet(0, 1), nil)

	c := NewPCCache(r0.MemBytes()+r01.MemBytes(), NewVecPool(0))
	if !c.Put(r0) {
		t.Fatal("Put r0 rejected under an empty cache")
	}
	if !c.Put(r0) {
		t.Fatal("duplicate Put must report retained")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Put, want 1", c.Len())
	}
	if !c.Put(r01) {
		t.Fatal("Put r01 rejected within budget")
	}
	if c.Put(r1) {
		t.Fatal("Put r1 admitted over budget")
	}
	if c.Get(lattice.NewAttrSet(0)) != r0 || c.Get(lattice.NewAttrSet(1)) != nil {
		t.Fatal("Get returned wrong entries")
	}
	if c.HasRoom() {
		t.Error("HasRoom true at full budget")
	}
	used := c.Used()
	c.DropBelow(2) // evicts the singleton, keeps the pair
	if c.Len() != 1 || c.Get(lattice.NewAttrSet(0, 1)) != r01 {
		t.Fatalf("DropBelow(2): Len=%d", c.Len())
	}
	if c.Used() >= used {
		t.Errorf("Used did not shrink on eviction: %d -> %d", used, c.Used())
	}
	if !c.Put(r1) {
		t.Error("Put r1 rejected after eviction freed room")
	}
	if got := NewPCCache(0, nil); got == nil || !got.HasRoom() {
		t.Error("zero budget must fall back to the default")
	}
}

// TestRefinePanicsOnMember documents the programmer-error contract.
func TestRefinePanicsOnMember(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 50, attrs: 3, domain: 3, nullRate: 0}, 3)
	r := BuildRefinable(d, lattice.NewAttrSet(1), nil)
	defer func() {
		if recover() == nil {
			t.Error("refining by a member attribute must panic")
		}
	}()
	r.RefineSize(d, 1, -1, nil)
}

// TestRefinableAccessors smoke-tests the metadata the scheduler relies on.
func TestRefinableAccessors(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 300, attrs: 4, domain: 4, nullRate: 0.1}, 4)
	s := lattice.NewAttrSet(1, 2)
	r := BuildRefinable(d, s, nil)
	if r.Attrs() != s {
		t.Errorf("Attrs = %v, want %v", r.Attrs(), s)
	}
	if want, _ := LabelSize(d, s, -1); r.Groups() != want {
		t.Errorf("Groups = %d, want %d", r.Groups(), want)
	}
	if r.MemBytes() < int64(d.NumRows())*4 {
		t.Errorf("MemBytes = %d, below the group vector floor", r.MemBytes())
	}
	_ = fmt.Sprintf("%v", r.Attrs())
}
