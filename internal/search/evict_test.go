package search

// Pins the single eviction point of the frontier scheduler: a level's
// cached parents leave the cache after the level is sized and before the
// next level's parents are built, so the builds reuse the evicted group
// vectors' budget (and slabs) rather than competing with them.

import (
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// highCardPairsDataset has dense-keyable singletons whose pairs overflow
// the dense key space, so every pair is sized from a cached materialized
// singleton and every triple from a cached pair.
func highCardPairsDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	const rows, attrs, domain = 2000, 4, 1500
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	bld := dataset.NewBuilder("highcard-pairs", names...)
	v := uint64(0x9E3779B97F4A7C15)
	row := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			row[i] = string(rune('A' + int(v%domain)))
		}
		bld.AppendStrings(row...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLevelEvictionBeforeBuilds(t *testing.T) {
	d := highCardPairsDataset(t)
	n := d.NumAttrs()
	// Singletons {0}..{n-2} have gen children beyond the dense tier and are
	// seeded; {n-1} has no gen children. Size a cache to hold exactly the
	// seeded singletons: every later index has the same group-vector cost.
	var probe Stats
	seeded := newLevelSizer(d, Options{Bound: 1 << 20, Workers: 1}, &probe)
	if seeded.cache == nil || seeded.cache.Len() != n-1 {
		t.Fatalf("seeding cached %v singletons, want %d", seeded.cache, n-1)
	}
	budget := seeded.cache.Used()

	var stats Stats
	z := newLevelSizer(d, Options{Bound: 1 << 20, Workers: 1, CacheBudget: budget}, &stats)
	if z.cache.Len() != n-1 || z.cache.HasRoom() {
		t.Fatalf("budgeted seeding: Len=%d HasRoom=%v, want %d and full", z.cache.Len(), z.cache.HasRoom(), n-1)
	}
	for k := 2; k <= n; k++ {
		var level []lattice.AttrSet
		lattice.Combinations(n, k, func(s lattice.AttrSet) bool {
			level = append(level, s)
			return true
		})
		before := stats.RefinedSets
		if err := z.sizeLevel(level, func(lattice.AttrSet, bool) {}); err != nil {
			t.Fatal(err)
		}
		if got := stats.RefinedSets - before; got != len(level) {
			t.Fatalf("level %d: %d of %d sets refined", k, got, len(level))
		}
		// Nothing below the level survives it. The in-bound sets with gen
		// children — every set whose maximum is below n-1 — are cached;
		// they fit only because the level's parents were evicted first.
		want := 0
		for _, s := range level {
			if s.MaxIndex() < n-1 {
				want++
				if z.cache.Get(s) == nil {
					t.Fatalf("level %d: parent %v not built", k, s)
				}
			}
		}
		if z.cache.Len() != want {
			t.Fatalf("level %d: cache holds %d indexes, want the %d next-level parents", k, z.cache.Len(), want)
		}
	}
}
