package core

// Differential tests for the external-memory spill tier: under a MemBudget
// that forces multiple on-disk runs, the spill group-by must be
// bit-identical to BuildPC and LabelSize — same pattern→count maps, same
// cap-abort outcomes — for every worker count and both record formats
// (byte-string and fixed-width uint64), and must leave no run files behind
// on any exit path. Budgeted builds whose result models over the budget
// come back merge-on-read (spilledpc.go): those are additionally pinned
// against the in-memory oracle through the whole consumer surface
// (Size/LookupValsCtx/EachCtx/MarginalizeCtx) and release their runs on
// demand.

import (
	"math/rand/v2"
	"os"
	"sync"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// spillConfigs are the shapes the spill tier serves, across NULL rates and
// duplication levels: byte-key sets (mixed-radix key overflowing uint64)
// and uint64-map sets beyond the dense tier.
var spillConfigs = []diffConfig{
	{rows: 3000, attrs: 4, domain: 65000, nullRate: 0},
	{rows: 3000, attrs: 4, domain: 65000, nullRate: 0.1},
	{rows: 2000, attrs: 5, domain: 40000, nullRate: 0.3},
	{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}, // 300^4 fits uint64, beyond dense: u64 format
}

// spillBudgetFor returns a MemBudget that forces the full set of cfg into
// at least minRuns spill runs (for a single counting worker; parallel
// counting only increases the run count).
func spillBudgetFor(d *dataset.Dataset, s lattice.AttrSet, minRuns int) int64 {
	k := NewKeyer(d, s)
	var fp int64
	if k.Fits() {
		distinct := d.NumRows()
		if r, _ := k.Radix(); r < uint64(distinct) {
			distinct = int(r)
		}
		fp = spillFootprint(distinct, spillRecWidthU64, spillEntryBytesU64)
	} else {
		fp = spillFootprint(d.NumRows(), 2*s.Size(), spillEntryBytes)
	}
	return fp/int64(minRuns) - 1
}

// spillSet returns the full attribute set, skipping configs whose full-set
// grouping the dispatch would serve densely (those never spill).
func spillSet(t *testing.T, d *dataset.Dataset) lattice.AttrSet {
	t.Helper()
	s := lattice.FullSet(d.NumAttrs())
	k := NewKeyer(d, s)
	if _, dense := denseRadix(k, d.NumRows(), DefaultDenseLimit); dense {
		t.Skipf("set %v is dense-keyable; not a spill shape", s)
	}
	return s
}

// assertNoSpillFiles checks that a scan left its private spill directory
// tree fully removed.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill entries left behind in %s", len(ents), dir)
	}
}

// pcEqualContents compares two pattern-count indexes entry by entry via
// EachCtx, without constraining the storage representation — the comparator
// for budgeted builds, whose representation (materialized vs merge-on-read
// spilled) legitimately differs from the unbudgeted oracle's.
func pcEqualContents(t *testing.T, want, got *PC) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("size mismatch: oracle %d, budgeted %d", want.Size(), got.Size())
	}
	wd, gd := pcDump(want), pcDump(got)
	if len(wd) != len(gd) {
		t.Fatalf("pattern count mismatch: oracle %d, budgeted %d", len(wd), len(gd))
	}
	for key, c := range wd {
		if gd[key] != c {
			t.Fatalf("pattern %q: oracle count %d, budgeted %d", key, c, gd[key])
		}
	}
}

// wantFormat returns the record format dispatch must pick for the set.
func wantFormat(d *dataset.Dataset, s lattice.AttrSet) spillFormat {
	if NewKeyer(d, s).Fits() {
		return spillFmtU64
	}
	return spillFmtBytes
}

func TestDifferentialSpillBuildPC(t *testing.T) {
	for ci, cfg := range spillConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+0x51)
			s := spillSet(t, d)
			format := wantFormat(d, s)
			want := BuildPC(d, s)
			budget := spillBudgetFor(d, s, 4)
			for _, workers := range diffWorkerCounts {
				dir := t.TempDir()
				var stats ScanStats
				opts := testCountOptions(workers)
				opts.MemBudget = budget
				opts.SpillDir = dir
				opts.Stats = &stats
				got := mustBuildPC(t, d, s, opts)
				pcEqualContents(t, want, got)
				if stats.Spilled != 1 {
					t.Fatalf("workers=%d: Spilled = %d, want 1", workers, stats.Spilled)
				}
				var wantU64 int64
				if format == spillFmtU64 {
					wantU64 = 1
				}
				if stats.SpilledU64 != wantU64 {
					t.Fatalf("workers=%d: SpilledU64 = %d, want %d", workers, stats.SpilledU64, wantU64)
				}
				if stats.SpillRuns < 4 {
					t.Fatalf("workers=%d: SpillRuns = %d, want >= 4", workers, stats.SpillRuns)
				}
				// SpillBytes includes per-flush frame headers on top of the
				// record payload.
				if wantPayload := int64(d.NumRows() * 2 * s.Size()); cfg.nullRate == 0 && format == spillFmtBytes && stats.SpillBytes < wantPayload {
					t.Fatalf("workers=%d: SpillBytes = %d, want >= %d", workers, stats.SpillBytes, wantPayload)
				}
				// Whether the result materialized or stayed merge-on-read
				// is decided by the exact counted size against the budget —
				// identical for every worker count.
				wantSpilled := int64(want.Size())*int64(format.entryBytes(NewKeyer(d, s))) > budget
				if got.Spilled() != wantSpilled {
					t.Fatalf("workers=%d: Spilled() = %v, want %v (size %d, budget %d)",
						workers, got.Spilled(), wantSpilled, want.Size(), budget)
				}
				got.ReleaseSpill()
				assertNoSpillFiles(t, dir)
			}
		})
	}
}

func TestDifferentialSpillLabelSize(t *testing.T) {
	for ci, cfg := range spillConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+0x52)
			s := spillSet(t, d)
			exact, _ := LabelSize(d, s, -1)
			budget := spillBudgetFor(d, s, 4)
			caps := []int{-1, 0, 1, exact - 1, exact, exact + 1}
			for _, workers := range diffWorkerCounts {
				for _, cap := range caps {
					wantSize, wantWithin := LabelSize(d, s, cap)
					dir := t.TempDir()
					opts := testCountOptions(workers)
					opts.MemBudget = budget
					opts.SpillDir = dir
					gotSize, gotWithin := mustLabelSize(t, d, s, cap, opts)
					if gotSize != wantSize || gotWithin != wantWithin {
						t.Fatalf("workers=%d cap=%d: got (%d, %v), want (%d, %v)",
							workers, cap, gotSize, gotWithin, wantSize, wantWithin)
					}
					assertNoSpillFiles(t, dir)
				}
			}
		})
	}
}

// TestDifferentialSpillFused mixes spilled and in-memory sets in one fused
// frontier: spilled sets must not perturb the fused scan's results, and
// every set must match its sequential LabelSize.
func TestDifferentialSpillFused(t *testing.T) {
	cfg := diffConfig{rows: 3000, attrs: 5, domain: 65000, nullRate: 0.1}
	d := diffDataset(t, cfg, 0x53)
	rng := rand.New(rand.NewPCG(0x53, 0xF00D))
	sets := diffAttrSets(cfg.attrs, rng)
	full := lattice.FullSet(cfg.attrs)
	budget := spillBudgetFor(d, full, 4)
	for _, cap := range []int{-1, 5, 500} {
		wantSizes := make([]int, len(sets))
		wantWithin := make([]bool, len(sets))
		for i, s := range sets {
			wantSizes[i], wantWithin[i] = LabelSize(d, s, cap)
		}
		for _, workers := range diffWorkerCounts {
			dir := t.TempDir()
			var stats ScanStats
			opts := testCountOptions(workers)
			opts.MemBudget = budget
			opts.SpillDir = dir
			opts.Stats = &stats
			sizes, within := mustLabelSizes(t, d, sets, cap, opts)
			for i := range sets {
				if sizes[i] != wantSizes[i] || within[i] != wantWithin[i] {
					t.Fatalf("cap=%d workers=%d set %v: got (%d, %v), want (%d, %v)",
						cap, workers, sets[i], sizes[i], within[i], wantSizes[i], wantWithin[i])
				}
			}
			if stats.Spilled == 0 {
				t.Fatalf("cap=%d workers=%d: no set spilled under budget %d", cap, workers, budget)
			}
			assertNoSpillFiles(t, dir)
		}
	}
}

// TestSpillU64Format pins the new u64 dispatch rule: a uint64-keyable set
// beyond the dense tier spills with the fixed-width uint64 record format
// and stays bit-identical to the oracle.
func TestSpillU64Format(t *testing.T) {
	cfg := spillConfigs[3] // 300^4 fits uint64, beyond the dense slot limit
	d := diffDataset(t, cfg, 0x54)
	s := lattice.FullSet(cfg.attrs)
	k := NewKeyer(d, s)
	if !k.Fits() {
		t.Fatalf("config %v unexpectedly overflows uint64", cfg)
	}
	if _, dense := denseRadix(k, d.NumRows(), DefaultDenseLimit); dense {
		t.Fatalf("config %v unexpectedly dense-keyable", cfg)
	}
	want := BuildPC(d, s)
	var stats ScanStats
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, s, 4)
	opts.SpillDir = t.TempDir()
	opts.Stats = &stats
	got := mustBuildPC(t, d, s, opts)
	pcEqualContents(t, want, got)
	if stats.Spilled != 1 || stats.SpilledU64 != 1 {
		t.Fatalf("Spilled=%d SpilledU64=%d, want 1/1", stats.Spilled, stats.SpilledU64)
	}
	// 8-byte records, one per non-NULL row.
	if stats.SpillBytes%spillRecWidthU64 != 0 {
		t.Fatalf("SpillBytes = %d not a multiple of the u64 record width", stats.SpillBytes)
	}
	got.ReleaseSpill()
	assertNoSpillFiles(t, opts.SpillDir)
}

// TestSpillNeverDense pins the dispatch exemption: dense-keyable sets
// never spill, however small the budget — their flat count state is
// bounded by the dense slot limit, not the row count.
func TestSpillNeverDense(t *testing.T) {
	cfg := diffConfig{rows: 3000, attrs: 4, domain: 8, nullRate: 0.05}
	d := diffDataset(t, cfg, 0x58)
	s := lattice.FullSet(cfg.attrs)
	k := NewKeyer(d, s)
	if _, dense := denseRadix(k, d.NumRows(), DefaultDenseLimit); !dense {
		t.Fatalf("config %v unexpectedly beyond the dense tier", cfg)
	}
	var stats ScanStats
	opts := testCountOptions(2)
	opts.MemBudget = 1 // absurdly small
	opts.Stats = &stats
	want := BuildPC(d, s)
	got := mustBuildPC(t, d, s, opts)
	pcEqual(t, want, got)
	if stats.Spilled != 0 {
		t.Fatalf("dense-keyable set spilled %d times", stats.Spilled)
	}
}

// TestSpillDispatchDeterministic pins the predicate's edges for both
// formats: footprint at or under the budget stays in memory; one byte over
// spills; zero rows and unset budgets never spill; the run count scales
// with the counting workers' budget shares.
func TestSpillDispatchDeterministic(t *testing.T) {
	cfg := diffConfig{rows: 1000, attrs: 4, domain: 65000, nullRate: 0}
	d := diffDataset(t, cfg, 0x55)
	s := lattice.FullSet(cfg.attrs)
	k := NewKeyer(d, s)
	fp := spillFootprint(d.NumRows(), 2*s.Size(), spillEntryBytes)

	if _, _, ok := (CountOptions{MemBudget: fp}).spillFor(k, d.NumRows(), 1); ok {
		t.Fatal("footprint == budget spilled")
	}
	runs, format, ok := (CountOptions{MemBudget: fp - 1}).spillFor(k, d.NumRows(), 1)
	if !ok || runs < 2 || format != spillFmtBytes {
		t.Fatalf("footprint > budget: got (runs=%d, format=%d, ok=%v)", runs, format, ok)
	}
	if _, _, ok := (CountOptions{}).spillFor(k, d.NumRows(), 1); ok {
		t.Fatal("unset budget spilled")
	}
	if _, _, ok := (CountOptions{MemBudget: 1}).spillFor(k, 0, 1); ok {
		t.Fatal("zero-row scan spilled")
	}
	runs, _, ok = (CountOptions{MemBudget: 1}).spillFor(k, d.NumRows(), 1)
	if !ok || runs != maxSpillRuns {
		t.Fatalf("tiny budget: got (runs=%d, ok=%v), want fan-out capped at %d", runs, ok, maxSpillRuns)
	}

	// Per-worker budget shares: parallel run counting keeps one run map
	// live per worker, so K must scale with the worker count.
	runs1, _, _ := (CountOptions{MemBudget: fp / 4}).spillFor(k, d.NumRows(), 1)
	runs8, _, _ := (CountOptions{MemBudget: fp / 4}).spillFor(k, d.NumRows(), 8)
	if runs8 < 8*runs1/2 {
		t.Fatalf("runs did not scale with workers: %d at 1 worker, %d at 8", runs1, runs8)
	}

	// uint64 format edges: a uint64-keyable set beyond the dense tier
	// dispatches on the u64 footprint model.
	cfgU := diffConfig{rows: 1000, attrs: 4, domain: 300, nullRate: 0}
	dU := diffDataset(t, cfgU, 0x59)
	sU := lattice.FullSet(cfgU.attrs)
	kU := NewKeyer(dU, sU)
	if !kU.Fits() {
		t.Fatal("u64 config overflows uint64")
	}
	fpU := spillFootprint(dU.NumRows(), spillRecWidthU64, spillEntryBytesU64)
	if _, _, ok := (CountOptions{MemBudget: fpU}).spillFor(kU, dU.NumRows(), 1); ok {
		t.Fatal("u64 footprint == budget spilled")
	}
	runs, format, ok = (CountOptions{MemBudget: fpU - 1}).spillFor(kU, dU.NumRows(), 1)
	if !ok || runs < 2 || format != spillFmtU64 {
		t.Fatalf("u64 footprint > budget: got (runs=%d, format=%d, ok=%v)", runs, format, ok)
	}
}

// TestSpillRunBudgetModel pins the budget claim the run sizing makes: with
// K = ceil(footprint/budget) runs, the largest run's modeled map footprint
// stays within the budget (hash balance gives a wide margin; the test
// allows 2x for skew).
func TestSpillRunBudgetModel(t *testing.T) {
	cfg := diffConfig{rows: 6000, attrs: 4, domain: 65000, nullRate: 0}
	d := diffDataset(t, cfg, 0x56)
	s := spillSet(t, d)
	budget := spillBudgetFor(d, s, 6)
	dir := t.TempDir()

	k := NewKeyer(d, s)
	runs, _, ok := (CountOptions{MemBudget: budget}).spillFor(k, d.NumRows(), 1)
	if !ok || runs < 6 {
		t.Fatalf("expected >= 6 runs, got (%d, %v)", runs, ok)
	}
	var stats ScanStats
	opts := CountOptions{Workers: 1, MemBudget: budget, SpillDir: dir, Stats: &stats}
	sizes, within, err := LabelSizesFused(d, []lattice.AttrSet{s}, -1, opts)
	if err != nil || !within[0] {
		t.Fatalf("spill sizing failed: err=%v within=%v", err, within)
	}
	size := sizes[0]
	if stats.Spilled != 1 || stats.SpillRuns != int64(runs) {
		t.Fatalf("spilled %d sets into %d runs, want 1 set into %d runs", stats.Spilled, stats.SpillRuns, runs)
	}
	if exact, _ := LabelSize(d, s, -1); size != exact {
		t.Fatalf("size %d != exact %d", size, exact)
	}
	modeled := stats.SpillMaxRunEntries * int64(2*s.Size()+spillEntryBytes)
	if modeled > 2*budget {
		t.Fatalf("largest run models %d B, budget %d B: runs are not bounding memory", modeled, budget)
	}
	assertNoSpillFiles(t, dir)
}

// TestSpillMaterializeDecision pins the merge-on-read decision: a heavily
// duplicated byte-key dataset spills its scan (the rows-bound estimate is
// over budget) but its exact result fits, so the build comes back as an
// ordinary in-memory map with the run files already removed — while a
// near-distinct dataset under the same rule stays on disk.
func TestSpillMaterializeDecision(t *testing.T) {
	// ~60 distinct patterns across 4000 rows: result tiny, scan estimate big.
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 65000, nullRate: 0}
	d := dupDataset(t, cfg, 60, 0x5A)
	s := lattice.FullSet(cfg.attrs)
	if NewKeyer(d, s).Fits() {
		t.Fatal("expected byte keys")
	}
	want := BuildPC(d, s)
	dir := t.TempDir()
	var stats ScanStats
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, s, 4)
	opts.SpillDir = dir
	opts.Stats = &stats
	got := mustBuildPC(t, d, s, opts)
	if stats.Spilled != 1 {
		t.Fatalf("scan did not spill (Spilled=%d)", stats.Spilled)
	}
	if got.Spilled() {
		t.Fatalf("tiny result (%d entries) stayed merge-on-read", got.Size())
	}
	pcEqual(t, want, got)
	// Materialized through the spill scan: files must already be gone
	// without any release call.
	assertNoSpillFiles(t, dir)
}

// dupDataset builds a cfg-shaped dataset whose rows repeat from a pool of
// `distinct` tuples, so the exact pattern count is small while the
// dispatch estimate (distinct <= rows) stays large.
func dupDataset(t *testing.T, cfg diffConfig, distinct int, seed uint64) *dataset.Dataset {
	t.Helper()
	base := diffDataset(t, diffConfig{rows: distinct, attrs: cfg.attrs, domain: cfg.domain, nullRate: cfg.nullRate}, seed)
	bld := dataset.NewBuilder("dup", base.AttrNames()...)
	for a := 0; a < base.NumAttrs(); a++ {
		for _, v := range base.Attr(a).Domain() {
			if _, err := bld.InternValue(a, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xD0B))
	ids := make([]uint16, base.NumAttrs())
	for r := 0; r < cfg.rows; r++ {
		src := rng.IntN(base.NumRows())
		for a := range ids {
			ids[a] = base.Col(a)[src]
		}
		bld.AppendIDs(ids...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSpilledPCConsumerSurface pins the merge-on-read representation
// against the oracle through every consumer path: Size, LookupValsCtx of
// every present pattern, LookupValsCtx of absent and NULL-bearing patterns,
// EachCtx early stop, and concurrent lookups from many goroutines.
func TestSpilledPCConsumerSurface(t *testing.T) {
	cfg := diffConfig{rows: 3000, attrs: 4, domain: 65000, nullRate: 0.1}
	d := diffDataset(t, cfg, 0x5B)
	s := spillSet(t, d)
	want := BuildPC(d, s)
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, s, 4)
	opts.SpillDir = t.TempDir()
	got := mustBuildPC(t, d, s, opts)
	if !got.Spilled() {
		t.Fatalf("near-distinct build did not stay merge-on-read")
	}
	defer got.ReleaseSpill()

	if want.Size() != got.Size() {
		t.Fatalf("Size: oracle %d, spilled %d", want.Size(), got.Size())
	}
	n := d.NumAttrs()
	// Every stored pattern looks up identically (also exercises the pinned
	// hot-run cache on repeated probes of the same runs).
	mustEach(t, want, n, func(vals []uint16, c int) bool {
		if g := mustLookup(t, got, vals); g != c {
			t.Fatalf("LookupValsCtx(%v) = %d, want %d", vals, g, c)
		}
		return true
	})
	// Absent and NULL-bearing patterns return 0.
	absent := make([]uint16, n)
	for a := range absent {
		absent[a] = uint16(d.Attr(a).DomainSize()) // valid ids, unlikely combo
	}
	if mustLookup(t, want, absent) == 0 && mustLookup(t, got, absent) != 0 {
		t.Fatalf("absent pattern returned %d", mustLookup(t, got, absent))
	}
	withNull := make([]uint16, n)
	withNull[0] = dataset.Null
	if mustLookup(t, got, withNull) != 0 {
		t.Fatalf("NULL-bearing pattern returned %d", mustLookup(t, got, withNull))
	}
	// EachCtx with early stop.
	seen := 0
	mustEach(t, got, n, func(vals []uint16, c int) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("EachCtx early stop visited %d patterns, want 10", seen)
	}
	// Concurrent lookups (the evaluation phase probes labels from worker
	// goroutines); run under -race in CI.
	rows := pcDumpRows(t, want, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(rows); i += 4 {
				if c, err := got.LookupValsCtx(nil, rows[i].vals); err != nil || c != rows[i].count {
					panic("concurrent lookup mismatch")
				}
			}
		}(g)
	}
	wg.Wait()
}

// pcDumpRows flattens a PC into (vals, count) rows for probing.
type pcRow struct {
	vals  []uint16
	count int
}

func pcDumpRows(t testing.TB, pc *PC, n int) []pcRow {
	var rows []pcRow
	mustEach(t, pc, n, func(vals []uint16, c int) bool {
		v := make([]uint16, n)
		copy(v, vals)
		rows = append(rows, pcRow{v, c})
		return true
	})
	return rows
}

func TestMarginalizeFromSpilledPC(t *testing.T) {
	cfg := diffConfig{rows: 2000, attrs: 4, domain: 65000, nullRate: 0}
	d := diffDataset(t, cfg, 0x57)
	s := spillSet(t, d)
	opts := testCountOptions(1)
	opts.MemBudget = spillBudgetFor(d, s, 4)
	opts.SpillDir = t.TempDir()
	spilled := mustBuildPC(t, d, s, opts)
	defer spilled.ReleaseSpill()
	sub := lattice.NewAttrSet(0, 2)
	want := mustMarginalize(t, BuildPC(d, s), d, sub)
	got := mustMarginalize(t, spilled, d, sub)
	pcEqual(t, want, got)
}

// TestSpillStatsRaceSafe drives budgeted scans from concurrent goroutines
// sharing one ScanStats — the satellite contract that spill counters are
// atomic. Run with -race (the CI GOMAXPROCS matrix covers this package).
func TestSpillStatsRaceSafe(t *testing.T) {
	cfg := diffConfig{rows: 2000, attrs: 4, domain: 65000, nullRate: 0}
	d := diffDataset(t, cfg, 0x5C)
	s := spillSet(t, d)
	budget := spillBudgetFor(d, s, 4)
	exact, _ := LabelSize(d, s, -1)
	var stats ScanStats
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := testCountOptions(2)
			opts.MemBudget = budget
			opts.Stats = &stats
			if sizes, _, err := LabelSizesFused(d, []lattice.AttrSet{s}, -1, opts); err != nil || sizes[0] != exact {
				panic("concurrent spilled sizing mismatch")
			}
		}()
	}
	wg.Wait()
	if stats.Spilled != goroutines {
		t.Fatalf("Spilled = %d, want %d", stats.Spilled, goroutines)
	}
	if stats.SpillRuns < 4*goroutines {
		t.Fatalf("SpillRuns = %d, want >= %d", stats.SpillRuns, 4*goroutines)
	}
	if stats.SpillMaxRunEntries <= 0 {
		t.Fatal("SpillMaxRunEntries not recorded")
	}
}
