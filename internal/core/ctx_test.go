package core

// Cancellation contract of the counting engine: a fired context surfaces
// as the typed context error (context.Canceled / context.DeadlineExceeded)
// from every *Ctx / *E entry point, on every kernel tier — dense, map,
// byte-map, spill — for every worker count; no partial index escapes, no
// spill temp files or goroutines outlive the call, and a label never
// retains its build context. ENOSPC is a degraded mode, not an error:
// injected full-disk faults route the affected set through the in-memory
// fallback with bit-identical sizes, metered in ScanStats.

import (
	"context"
	"errors"
	"testing"
	"time"

	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
	"pcbl/internal/testutil"
)

// ctxShapes routes one config onto each kernel tier (see pcRepr).
var ctxShapes = []struct {
	name string
	cfg  diffConfig
	spl  bool // arm a MemBudget that forces the spill tier
}{
	{name: "dense", cfg: diffConfig{rows: 2000, attrs: 3, domain: 8}},
	{name: "map", cfg: diffConfig{rows: 3000, attrs: 4, domain: 300}},
	{name: "bytes", cfg: diffConfig{rows: 3000, attrs: 4, domain: 65000}},
	{name: "spill", cfg: diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}, spl: true},
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestCancelledBuildReturnsTypedError(t *testing.T) {
	testutil.CheckGoroutines(t)
	for si, sh := range ctxShapes {
		t.Run(sh.name, func(t *testing.T) {
			d := diffDataset(t, sh.cfg, uint64(si)+0xCC)
			s := lattice.FullSet(sh.cfg.attrs)
			for _, workers := range diffWorkerCounts {
				dir := t.TempDir()
				opts := testCountOptions(workers)
				opts.SpillDir = dir
				if sh.spl {
					opts.MemBudget = spillBudgetFor(d, s, 3)
				}
				opts.Ctx = cancelledCtx()
				pc, err := BuildPCParallel(d, s, opts)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
				}
				if pc != nil {
					t.Fatalf("workers=%d: cancelled build returned a partial index", workers)
				}
				assertNoSpillFiles(t, dir)
			}
		})
	}
}

func TestExpiredDeadlineBuildReturnsDeadlineExceeded(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 3000, attrs: 4, domain: 300}, 0xCD)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	opts := testCountOptions(4)
	opts.Ctx = ctx
	_, err := BuildPCParallel(d, lattice.FullSet(4), opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestCancelledSizingReturnsTypedError(t *testing.T) {
	testutil.CheckGoroutines(t)
	for si, sh := range ctxShapes {
		t.Run(sh.name, func(t *testing.T) {
			d := diffDataset(t, sh.cfg, uint64(si)+0xCE)
			s := lattice.FullSet(sh.cfg.attrs)
			for _, workers := range diffWorkerCounts {
				dir := t.TempDir()
				opts := testCountOptions(workers)
				opts.SpillDir = dir
				opts.Ctx = cancelledCtx()
				if sh.spl {
					opts.MemBudget = spillBudgetFor(d, s, 3)
				}
				if _, _, err := LabelSizesFused(d, []lattice.AttrSet{s}, -1, opts); !errors.Is(err, context.Canceled) {
					t.Fatalf("LabelSizesFused one set workers=%d: err = %v, want context.Canceled", workers, err)
				}
				sets := []lattice.AttrSet{s, s.Remove(0)}
				if _, _, err := LabelSizesFused(d, sets, -1, opts); !errors.Is(err, context.Canceled) {
					t.Fatalf("LabelSizesFused workers=%d: err = %v, want context.Canceled", workers, err)
				}
				assertNoSpillFiles(t, dir)
			}
		})
	}
}

func TestCancelledRefineBatchReturnsTypedError(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 2000, attrs: 4, domain: 8}, 0xCF)
	pool := NewVecPool(0)
	parent := BuildRefinable(d, lattice.NewAttrSet(0), pool)
	if parent == nil {
		t.Fatal("parent not refinable")
	}
	defer parent.Release(pool)
	opts := testCountOptions(2)
	opts.Pool = pool
	opts.Ctx = cancelledCtx()
	res, err := parent.RefineBatch(d, []BatchSpec{{Attr: 1}, {Attr: 2}}, -1, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled batch returned partial results")
	}
	// The cancelled pass must have returned its slabs: the pool is still
	// usable (a double-put would corrupt it).
	v := pool.Int32(128, false)
	if len(v) != 128 {
		t.Fatal("pool returned wrong-size slab after cancelled batch")
	}
	pool.PutInt32(v)
}

func TestLabelDoesNotRetainBuildContext(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 2000, attrs: 3, domain: 8}, 0xD0)
	ctx, cancel := context.WithCancel(context.Background())
	l, err := BuildLabelOptsCtx(ctx, d, lattice.FullSet(3), testCountOptions(2))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cancel() // the label must outlive its build context
	p := PatternFromRow(d, 0, lattice.NewAttrSet(0, 1))
	if _, ok, err := l.CountCtx(nil, p); err != nil || !ok {
		t.Fatalf("marginal count after build-ctx cancel: ok=%v err=%v", ok, err)
	}
}

func TestCancelledSpilledReadReturnsTypedError(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, oracle, spilled, _, _ := buildSpilledOnFaultFS(t, 0xD1)
	defer spilled.ReleaseSpill()
	probes := spilledProbes(t, spilled, 50, 0xD1)

	ctx := cancelledCtx()
	if _, err := spilled.LookupValsCtx(ctx, probes[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("LookupValsCtx: err = %v, want context.Canceled", err)
	}
	if err := spilled.EachCtx(ctx, 4, func([]uint16, int) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("EachCtx: err = %v, want context.Canceled", err)
	}
	// Cancellation is the caller's doing, not disk trouble: the read-error
	// and retry meters must not move.
	if st, ok := spilled.SpillReadStats(); !ok || st.ReadErrors != 0 || st.Retries != 0 {
		t.Fatalf("ctx errors were metered as read failures: %+v", st)
	}
	// Nothing was poisoned: the same PC answers with a live context.
	for i, vals := range probes {
		got, err := spilled.LookupValsCtx(context.Background(), vals)
		if err != nil {
			t.Fatalf("probe %d after cancel: %v", i, err)
		}
		if want := mustLookup(t, oracle, vals); got != want {
			t.Fatalf("probe %d: count %d, oracle %d", i, got, want)
		}
	}
}

func TestENOSPCDegradesToInMemoryFallback(t *testing.T) {
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	d := diffDataset(t, cfg, 0xD2)
	full := lattice.FullSet(cfg.attrs)
	sets := []lattice.AttrSet{full}
	for i := 0; i < cfg.attrs; i++ {
		sets = append(sets, full.Remove(i))
	}
	oracle := make([]int, len(sets))
	for i, s := range sets {
		oracle[i], _ = LabelSize(d, s, -1)
	}

	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpWrite, 1) // disk full from the first write
	dir := t.TempDir()
	var stats ScanStats
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, full.Remove(0), 3)
	opts.SpillDir = dir
	opts.FS = ffs
	opts.Stats = &stats
	sizes, _, err := LabelSizesFused(d, sets, -1, opts)
	if err != nil {
		t.Fatalf("full disk must degrade, not fail: %v", err)
	}
	for i := range sets {
		if sizes[i] != oracle[i] {
			t.Fatalf("set %v: size %d on full disk, oracle %d", sets[i], sizes[i], oracle[i])
		}
	}
	if stats.SpillFallbacks == 0 {
		t.Fatal("no spill fallbacks metered on a full disk")
	}
	if stats.SpillNoSpaceFallbacks != stats.SpillFallbacks {
		t.Fatalf("SpillNoSpaceFallbacks = %d, want all %d fallbacks classified ENOSPC",
			stats.SpillNoSpaceFallbacks, stats.SpillFallbacks)
	}
	assertNoSpillFiles(t, dir)

	// The budgeted build degrades the same way, bit-identically.
	want := BuildPC(d, full)
	var bstats ScanStats
	bopts := testCountOptions(2)
	bopts.MemBudget = spillBudgetFor(d, full, 3)
	bopts.SpillDir = dir
	bopts.FS = ffs
	bopts.Stats = &bstats
	got, err := BuildPCParallel(d, full, bopts)
	if err != nil {
		t.Fatalf("budgeted build on full disk: %v", err)
	}
	pcEqualContents(t, want, got)
	if bstats.SpillNoSpaceFallbacks == 0 {
		t.Fatal("budgeted build fallback not classified ENOSPC")
	}
	assertNoSpillFiles(t, dir)
}

func TestENOSPCWriterSurfacesTypedError(t *testing.T) {
	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpCreate, 1)
	_, err := spill.NewWriter(spill.Config{RecWidth: 8, Runs: 4, Dir: t.TempDir(), FS: ffs})
	if !errors.Is(err, spill.ErrNoSpace) {
		t.Fatalf("err = %v, want spill.ErrNoSpace", err)
	}
}
