package core

// Differential coverage for parent-PC reuse: a materialized RefinablePC's
// group vector must partition the rows exactly as the group-by of its set
// does, refinement chains of materialized parents must size every step as
// sequential LabelSize does (including byte-key attribute sets, an
// all-NULL added attribute, the empty dataset and cap-abort boundaries),
// and PC.MarginalizeCtx — the inverse direction — must match a raw
// group-by of the sub-set on NULL-free data. PCCache coverage pins the
// memory budget and level-eviction behaviour.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// checkGroupVector asserts r's group vector is the group-by of its set:
// rows NULL in a member are -1, every other row carries a group id in
// [0, Groups), two rows share a group iff they agree on every member, and
// every group id is used.
func checkGroupVector(t *testing.T, d *dataset.Dataset, r *RefinablePC) {
	t.Helper()
	members := r.Attrs().Members()
	tupleOf := func(row int) (string, bool) {
		key := ""
		for _, a := range members {
			v := d.Col(a)[row]
			if v == dataset.Null {
				return "", false
			}
			key += fmt.Sprintf("%d,", v)
		}
		return key, true
	}
	if len(r.groups) != d.NumRows() {
		t.Fatalf("set %v: group vector covers %d rows, dataset has %d", r.Attrs(), len(r.groups), d.NumRows())
	}
	groupTuple := map[int32]string{}
	tupleGroup := map[string]int32{}
	for row, g := range r.groups {
		key, ok := tupleOf(row)
		if !ok {
			if g != -1 {
				t.Fatalf("set %v row %d: NULL row in group %d", r.Attrs(), row, g)
			}
			continue
		}
		if g < 0 || int(g) >= r.Groups() {
			t.Fatalf("set %v row %d: group %d outside [0, %d)", r.Attrs(), row, g, r.Groups())
		}
		if prev, seen := groupTuple[g]; seen && prev != key {
			t.Fatalf("set %v: group %d holds tuples %q and %q", r.Attrs(), g, prev, key)
		}
		if prev, seen := tupleGroup[key]; seen && prev != g {
			t.Fatalf("set %v: tuple %q split across groups %d and %d", r.Attrs(), key, prev, g)
		}
		groupTuple[g], tupleGroup[key] = key, g
	}
	if len(groupTuple) != r.Groups() {
		t.Fatalf("set %v: %d groups used, Groups reports %d", r.Attrs(), len(groupTuple), r.Groups())
	}
}

// TestDifferentialRefinableMatchesBuildPC: a raw-built RefinablePC must
// carry exactly BuildPC's groups — same count, and a group vector that
// partitions the rows as the group-by does — for every dataset shape and
// set, whichever key path (dense, uint64 map, byte string) built it.
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
				checkGroupVector(t, d, r)
			}
		})
	}
}

// checkRefineSizes asserts one batched pass over parent sizes every
// attribute in attrs exactly as sequential LabelSize does, at every cap of
// the grid and for every worker count, with and without a pool.
func checkRefineSizes(t *testing.T, d *dataset.Dataset, parent *RefinablePC, attrs []int, pool *VecPool) {
	t.Helper()
	s := parent.Attrs()
	trueSize, _ := LabelSize(d, s.Add(attrs[0]), -1)
	for _, cap := range diffCaps(trueSize) {
		for _, workers := range diffWorkerCounts {
			opts := testCountOptions(workers)
			if workers == 2 {
				opts.Pool = pool
			}
			res, err := parent.RefineSizeBatch(d, attrs, cap, opts)
			if err != nil {
				t.Fatal(err)
			}
			for j, a := range attrs {
				wantSize, wantWithin := LabelSize(d, s.Add(a), cap)
				if res[j].Size != wantSize || res[j].Within != wantWithin {
					t.Fatalf("refine %v+%d cap=%d workers=%d: got (%d, %v), want (%d, %v)",
						s, a, cap, workers, res[j].Size, res[j].Within, wantSize, wantWithin)
				}
			}
		}
	}
}

// TestDifferentialRefineChain: refine attribute by attribute from the
// empty set in randomized orders, each step from a materialized parent
// built the way the frontier scheduler builds its cached parents
// (BuildRefinable). Every step's batched size must match sequential
// LabelSize across the cap grid and the worker counts, including the
// byte-key dataset shape and the empty dataset.
func TestDifferentialRefineChain(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xC4A1))
			pool := NewVecPool(0)
			for trial := 0; trial < 3; trial++ {
				attrs := lattice.AttrSet(0)
				for _, a := range rng.Perm(cfg.attrs) {
					parent := BuildRefinable(d, attrs, pool)
					checkRefineSizes(t, d, parent, []int{a}, pool)
					parent.Release(pool)
					attrs = attrs.Add(a)
				}
			}
		})
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
	for _, workers := range diffWorkerCounts {
		res, err := r.RefineSizeBatch(empty, []int{1, 2}, 5, testCountOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		for j, got := range res {
			if got.Size != 0 || !got.Within {
				t.Fatalf("empty refine %d workers=%d = (%d, %v), want (0, true)", j, workers, got.Size, got.Within)
			}
		}
	}

	// One attribute entirely NULL: refining by it empties the index, and a
	// parent over it has no groups to refine.
	bld := dataset.NewBuilder("nulls", "a", "b", "c")
	for _, v := range []string{"x", "y"} {
		if _, err := bld.InternValue(0, v); err != nil {
			t.Fatal(err)
		}
		if _, err := bld.InternValue(2, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		bld.AppendIDs(uint16(1+i%2), dataset.Null, uint16(1+i/5))
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewVecPool(0)
	single := BuildRefinable(d, lattice.NewAttrSet(0), nil)
	if single.Groups() != 2 {
		t.Fatalf("singleton groups %d, want 2", single.Groups())
	}
	checkRefineSizes(t, d, single, []int{1, 2}, pool)
	allNull := BuildRefinable(d, lattice.NewAttrSet(0, 1), nil)
	if allNull.Groups() != 0 {
		t.Fatalf("all-NULL parent groups %d, want 0", allNull.Groups())
	}
	checkRefineSizes(t, d, allNull, []int{2}, pool)
	checkGroupVector(t, d, allNull)
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

// TestRefinePanicsOnMember documents the programmer-error contract on a
// lazy parent (TestRefineBatchPanics covers materialized parents).
func TestRefinePanicsOnMember(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 50, attrs: 3, domain: 3, nullRate: 0}, 3)
	r, ok := LazyRefinable(d, lattice.NewAttrSet(1))
	if !ok {
		t.Fatal("singleton not dense-keyable")
	}
	defer func() {
		if recover() == nil {
			t.Error("refining by a member attribute must panic")
		}
	}()
	r.RefineSizeBatch(d, []int{1}, -1, CountOptions{Workers: 1})
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
