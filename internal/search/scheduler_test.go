package search

// Differential coverage for the frontier scheduler: refinement-sized
// searches must agree exactly with raw-scan-sized searches (the PR 1
// behaviour, reachable via DisableRefine + a negative DenseLimit) for
// every worker count, on small-domain data (lazy parents) and on
// high-cardinality data (cached materialized parents), including under a
// cache budget so tight that most candidates fall back to scans
// mid-search.

import (
	"fmt"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// schedulerDataset is small-domain and deep enough that the search runs
// several lattice levels, exercising multi-level parent reuse.
func schedulerDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := datagen.BlueNile(8000, 21)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// highCardDataset is the raw (non-bucketized) CreditCard table at a test
// size: its numeric columns have hundreds to thousands of distinct values,
// so most candidates outgrow the dense key space and are sized from cached
// materialized parents.
func highCardDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := datagen.CreditCardRaw(3000, 12)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameEnumeration fails unless a run reproduced the baseline's candidates
// and examined/in-bound counters exactly.
func sameEnumeration(t *testing.T, name string, base, got []lattice.AttrSet, baseStats, stats Stats) {
	t.Helper()
	if len(got) != len(base) {
		t.Fatalf("%s: %d candidates, want %d", name, len(got), len(base))
	}
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("%s: candidate %d = %v, want %v", name, i, got[i], base[i])
		}
	}
	if stats.SizeComputed != baseStats.SizeComputed || stats.InBound != baseStats.InBound {
		t.Fatalf("%s: sized/in-bound %d/%d, want %d/%d",
			name, stats.SizeComputed, stats.InBound, baseStats.SizeComputed, baseStats.InBound)
	}
}

// TestSchedulerHighCardinality pins the cached-parent regime: on the raw
// CreditCard table the default search must enumerate exactly what raw
// scans do, with every examined set sized by refinement (none falls back
// to a scan) for every worker count.
func TestSchedulerHighCardinality(t *testing.T) {
	d := highCardDataset(t)
	for _, bound := range []int{50, 300} {
		base, baseStats, err := Enumerate(d, Options{Bound: bound, Workers: 1, DisableRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			cands, stats, err := Enumerate(d, Options{Bound: bound, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameEnumeration(t, fmt.Sprintf("bound=%d workers=%d", bound, workers), base, cands, baseStats, stats)
			if stats.RefinedSets != stats.SizeComputed || stats.ScannedSets != 0 {
				t.Fatalf("bound=%d workers=%d: refined %d scanned %d of %d sized sets",
					bound, workers, stats.RefinedSets, stats.ScannedSets, stats.SizeComputed)
			}
		}
	}
}

func TestSchedulerMatchesScanEnumeration(t *testing.T) {
	d := schedulerDataset(t)
	for _, bound := range []int{10, 50, 300} {
		base, baseStats, err := Enumerate(d, Options{
			Bound: bound, Workers: 1, DisableRefine: true, DenseLimit: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if baseStats.RefinedSets != 0 || baseStats.ScannedSets != baseStats.SizeComputed {
			t.Fatalf("bound=%d: scan-only run reports refined=%d scanned=%d sized=%d",
				bound, baseStats.RefinedSets, baseStats.ScannedSets, baseStats.SizeComputed)
		}
		for _, workers := range []int{1, 2, 8} {
			cands, stats, err := Enumerate(d, Options{Bound: bound, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) != len(base) {
				t.Fatalf("bound=%d workers=%d: %d candidates, scan path %d", bound, workers, len(cands), len(base))
			}
			for i := range cands {
				if cands[i] != base[i] {
					t.Fatalf("bound=%d workers=%d: candidate %d = %v, scan path %v", bound, workers, i, cands[i], base[i])
				}
			}
			if stats.SizeComputed != baseStats.SizeComputed || stats.InBound != baseStats.InBound {
				t.Fatalf("bound=%d workers=%d: sized/in-bound %d/%d, scan path %d/%d",
					bound, workers, stats.SizeComputed, stats.InBound, baseStats.SizeComputed, baseStats.InBound)
			}
			if stats.RefinedSets+stats.ScannedSets != stats.SizeComputed {
				t.Fatalf("bound=%d workers=%d: path counters %d+%d do not cover %d sized sets",
					bound, workers, stats.RefinedSets, stats.ScannedSets, stats.SizeComputed)
			}
			if stats.RefinedSets == 0 && stats.SizeComputed > 0 {
				t.Fatalf("bound=%d workers=%d: refinement never fired", bound, workers)
			}
		}
	}
}

// TestSchedulerTinyCacheBudget starves the refinement cache so Put
// rejections force raw-scan fallbacks mid-search for the high-cardinality
// candidates that need cached parents; results must not change. Lazy
// parents size dense-keyable candidates without any cache memory, so a
// starved budget cannot push those onto scans (asserted at the end).
func TestSchedulerTinyCacheBudget(t *testing.T) {
	d := highCardDataset(t)
	bound := 50
	base, baseStats, err := Enumerate(d, Options{Bound: bound, Workers: 1, DisableRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 200_000} {
		cands, stats, err := Enumerate(d, Options{Bound: bound, Workers: 2, CacheBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		sameEnumeration(t, fmt.Sprintf("budget=%d", budget), base, cands, baseStats, stats)
		if budget == 1 && stats.ScannedSets == 0 {
			t.Fatal("budget=1: expected scan fallbacks, got none")
		}
	}
	// On small-domain data a starved cache must not change results either
	// — and must not push dense-keyable candidates onto scans.
	d = schedulerDataset(t)
	base, baseStats, err = Enumerate(d, Options{Bound: bound, Workers: 1, DisableRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	cands, stats, err := Enumerate(d, Options{Bound: bound, Workers: 2, CacheBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameEnumeration(t, "small-domain budget=1", base, cands, baseStats, stats)
	if stats.BatchRefines == 0 || stats.ScannedSets != 0 {
		t.Fatalf("small-domain budget=1: batches=%d scanned=%d, want lazy refinement only", stats.BatchRefines, stats.ScannedSets)
	}
}

// TestSchedulerBatchAblation pins the sizing tiers against each other:
// batched refinement (default) and raw scans (DisableRefine) must
// enumerate identical candidates with identical examined/in-bound
// counters, and the counters must attribute the work to the right tier.
func TestSchedulerBatchAblation(t *testing.T) {
	d := schedulerDataset(t)
	for _, bound := range []int{10, 100} {
		scan, scanStats, err := Enumerate(d, Options{Bound: bound, Workers: 1, DisableRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		batched, bStats, err := Enumerate(d, Options{Bound: bound, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameEnumeration(t, fmt.Sprintf("bound=%d", bound), scan, batched, scanStats, bStats)
		if scanStats.BatchRefines != 0 || scanStats.RefinedSets != 0 {
			t.Fatalf("bound=%d: scan run reports %d batch passes, %d refined sets", bound, scanStats.BatchRefines, scanStats.RefinedSets)
		}
		if bStats.BatchRefines == 0 {
			t.Fatalf("bound=%d: batched run never used the batch tier", bound)
		}
		if bStats.PoolHits == 0 {
			t.Fatalf("bound=%d: batched run never recycled a slab", bound)
		}
		if bStats.RefinedSets == 0 {
			t.Fatalf("bound=%d: batched run attributes no sets to refinement", bound)
		}
	}
}

// TestSchedulerFullSearchAgreement runs both algorithms end to end with
// the scheduler on and off; chosen label, error and counters must match.
func TestSchedulerFullSearchAgreement(t *testing.T) {
	d := schedulerDataset(t)
	ps := core.DistinctTuples(d)
	type algo struct {
		name string
		run  func(opts Options) (*Result, error)
	}
	algos := []algo{
		{"topdown", func(o Options) (*Result, error) { return TopDown(d, ps, o) }},
		{"naive", func(o Options) (*Result, error) { return Naive(d, ps, o) }},
	}
	for _, bound := range []int{20, 100} {
		for _, a := range algos {
			want, err := a.run(Options{Bound: bound, FastEval: true, Workers: 1, DisableRefine: true, DenseLimit: -1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.run(Options{Bound: bound, FastEval: true, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got.Attrs != want.Attrs || got.Size != want.Size || got.MaxErr != want.MaxErr {
				t.Errorf("%s bound=%d: scheduler chose (%v, %d, %v), scan path (%v, %d, %v)",
					a.name, bound, got.Attrs, got.Size, got.MaxErr, want.Attrs, want.Size, want.MaxErr)
			}
			if got.Stats.SizeComputed != want.Stats.SizeComputed || got.Stats.InBound != want.Stats.InBound {
				t.Errorf("%s bound=%d: counters %d/%d, scan path %d/%d", a.name, bound,
					got.Stats.SizeComputed, got.Stats.InBound, want.Stats.SizeComputed, want.Stats.InBound)
			}
		}
	}
}
