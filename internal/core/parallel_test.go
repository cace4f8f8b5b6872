package core

// Differential-testing harness for the sharded counting engine: randomized
// datasets across sizes, domain widths, NULL rates and key encodings, each
// checked with worker counts 1, 2 and 8 against the sequential
// implementations in count.go. The parallel paths must be bit-identical —
// same pattern→count maps, same label sizes, same cap-abort outcomes — for
// every configuration.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// diffConfig describes one randomized dataset shape.
type diffConfig struct {
	rows     int
	attrs    int
	domain   int     // per-attribute domain size
	nullRate float64 // probability of NULL per cell
}

func (c diffConfig) name() string {
	return fmt.Sprintf("rows=%d_attrs=%d_dom=%d_null=%.2f", c.rows, c.attrs, c.domain, c.nullRate)
}

// diffConfigs spans the shapes the engine must handle: empty and tiny
// datasets, mid-size ones, NULL-free and NULL-heavy data, narrow domains
// (many duplicate patterns) and the 65000-value domains that overflow the
// mixed-radix uint64 key and force the byte-string fallback.
var diffConfigs = []diffConfig{
	{rows: 0, attrs: 3, domain: 4, nullRate: 0},
	{rows: 1, attrs: 3, domain: 4, nullRate: 0},
	{rows: 97, attrs: 4, domain: 3, nullRate: 0},
	{rows: 500, attrs: 5, domain: 6, nullRate: 0.1},
	{rows: 500, attrs: 5, domain: 6, nullRate: 0.5},
	{rows: 3000, attrs: 6, domain: 8, nullRate: 0.05},
	{rows: 3000, attrs: 4, domain: 65000, nullRate: 0.1}, // 65000^4 > 2^63: byte-string keys
	{rows: 1000, attrs: 8, domain: 2, nullRate: 0.02},
}

var diffWorkerCounts = []int{1, 2, 8}

// diffDataset generates a random dataset for a config, deterministically
// from the seed.
func diffDataset(t *testing.T, cfg diffConfig, seed uint64) *dataset.Dataset {
	t.Helper()
	names := make([]string, cfg.attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder(cfg.name(), names...)
	// Fix the full domain up front so DomainSize (and hence whether the
	// mixed-radix key fits) does not depend on which values the rows
	// happen to draw.
	for a := 0; a < cfg.attrs; a++ {
		for v := 0; v < cfg.domain; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xD1FF))
	ids := make([]uint16, cfg.attrs)
	for r := 0; r < cfg.rows; r++ {
		for a := range ids {
			if cfg.nullRate > 0 && rng.Float64() < cfg.nullRate {
				ids[a] = dataset.Null
			} else {
				ids[a] = uint16(1 + rng.IntN(cfg.domain))
			}
		}
		bld.AppendIDs(ids...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// diffAttrSets returns the attribute sets to probe: the empty set, every
// singleton, the full set, and a few random subsets.
func diffAttrSets(n int, rng *rand.Rand) []lattice.AttrSet {
	sets := []lattice.AttrSet{0, lattice.FullSet(n)}
	for i := 0; i < n; i++ {
		sets = append(sets, lattice.NewAttrSet(i))
	}
	for len(sets) < n+6 {
		var s lattice.AttrSet
		for i := 0; i < n; i++ {
			if rng.IntN(2) == 1 {
				s = s.Add(i)
			}
		}
		sets = append(sets, s)
	}
	return sets
}

// testCountOptions forces the sharded paths regardless of dataset size; the
// production threshold would route these small datasets to the sequential
// fallback and leave the parallel code untested.
func testCountOptions(workers int) CountOptions {
	return CountOptions{Workers: workers, minRowsPerWorker: 1}
}

// pcRepr names the storage representation a PC landed on.
func pcRepr(pc *PC) string {
	switch {
	case pc.sp != nil:
		return "spilled"
	case pc.dz != nil:
		return "dense"
	case pc.u != nil:
		return "map"
	default:
		return "bytes"
	}
}

// pcDump flattens a PC into pattern→count form via EachCtx, independent
// of the storage representation. A failed read panics: callers run it on
// indexes whose reads cannot fail, some of them off the test goroutine.
func pcDump(pc *PC) map[string]int {
	out := make(map[string]int)
	if err := pc.EachCtx(nil, lattice.MaxAttrs, func(vals []uint16, c int) bool {
		var key strings.Builder
		for _, a := range pc.Attrs().Members() {
			fmt.Fprintf(&key, "%d=%d;", a, vals[a])
		}
		out[key.String()] = c
		return true
	}); err != nil {
		panic(err)
	}
	return out
}

// pcEqual asserts two pattern-count indexes hold identical contents on the
// same storage representation (the kernel selection rules are
// deterministic, so sequential and parallel builds must agree on it).
func pcEqual(t *testing.T, want, got *PC) {
	t.Helper()
	if wr, gr := pcRepr(want), pcRepr(got); wr != gr {
		t.Fatalf("representation mismatch: sequential %s, parallel %s", wr, gr)
	}
	wd, gd := pcDump(want), pcDump(got)
	if len(wd) != len(gd) {
		t.Fatalf("pattern count mismatch: sequential %d, parallel %d", len(wd), len(gd))
	}
	for key, c := range wd {
		if gd[key] != c {
			t.Fatalf("pattern %q: sequential count %d, parallel %d", key, c, gd[key])
		}
	}
}

func TestDifferentialBuildPCParallel(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xBEEF))
			for _, s := range diffAttrSets(cfg.attrs, rng) {
				want := BuildPC(d, s)
				for _, workers := range diffWorkerCounts {
					got := mustBuildPC(t, d, s, testCountOptions(workers))
					pcEqual(t, want, got)
					if got.Size() != want.Size() {
						t.Fatalf("set %v workers=%d: Size %d, want %d", s, workers, got.Size(), want.Size())
					}
				}
			}
		})
	}
}

// diffCaps returns the cap grid probed for a set whose true size is known:
// no cap, zero, around the true size, and far beyond it — covering both
// abort and non-abort outcomes plus the boundary.
func diffCaps(trueSize int) []int {
	caps := []int{-1, 0, 1, trueSize, trueSize + 1, 10 * trueSize}
	if trueSize > 0 {
		caps = append(caps, trueSize-1)
	}
	return caps
}

func TestDifferentialLabelSizeParallel(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xF00D))
			for _, s := range diffAttrSets(cfg.attrs, rng) {
				trueSize, _ := LabelSize(d, s, -1)
				for _, cap := range diffCaps(trueSize) {
					wantSize, wantWithin := LabelSize(d, s, cap)
					for _, workers := range diffWorkerCounts {
						gotSize, gotWithin := mustLabelSize(t, d, s, cap, testCountOptions(workers))
						if gotSize != wantSize || gotWithin != wantWithin {
							t.Fatalf("set %v cap=%d workers=%d: got (%d, %v), want (%d, %v)",
								s, cap, workers, gotSize, gotWithin, wantSize, wantWithin)
						}
					}
				}
			}
		})
	}
}

// TestDifferentialLabelSizesFused checks the fused multi-set scanner
// against per-set sequential LabelSize for the whole frontier at once:
// mixed in-bound and out-of-bound sets in the same scan, every worker
// count, and (through the wide config) frontiers mixing the uint64 and
// byte-string key paths.
func TestDifferentialLabelSizesFused(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xFACE))
			sets := diffAttrSets(cfg.attrs, rng)
			// Pick caps that split the frontier: some sets abort, some not.
			maxSize := 0
			for _, s := range sets {
				if n, _ := LabelSize(d, s, -1); n > maxSize {
					maxSize = n
				}
			}
			for _, cap := range []int{-1, 0, 1, maxSize / 2, maxSize, maxSize + 1} {
				for _, workers := range diffWorkerCounts {
					sizes, within := mustLabelSizes(t, d, sets, cap, testCountOptions(workers))
					if len(sizes) != len(sets) || len(within) != len(sets) {
						t.Fatalf("cap=%d workers=%d: result length %d/%d, want %d",
							cap, workers, len(sizes), len(within), len(sets))
					}
					for i, s := range sets {
						wantSize, wantWithin := LabelSize(d, s, cap)
						if sizes[i] != wantSize || within[i] != wantWithin {
							t.Fatalf("set %v cap=%d workers=%d: got (%d, %v), want (%d, %v)",
								s, cap, workers, sizes[i], within[i], wantSize, wantWithin)
						}
					}
				}
			}
		})
	}
}

// TestLabelSizesFusedEmptyFrontier covers the zero-sets edge the search
// batcher can produce.
func TestLabelSizesFusedEmptyFrontier(t *testing.T) {
	d := diffDataset(t, diffConfigs[2], 7)
	sizes, within := mustLabelSizes(t, d, nil, 10, CountOptions{Workers: 4})
	if len(sizes) != 0 || len(within) != 0 {
		t.Fatalf("got %d/%d results for empty frontier", len(sizes), len(within))
	}
}

// TestBuildPCParallelSequentialFallback pins the threshold behaviour: with
// default options a small dataset must take the sequential path (workers
// resolve to 1), and results must still match.
func TestBuildPCParallelSequentialFallback(t *testing.T) {
	cfg := diffConfigs[2] // 97 rows
	d := diffDataset(t, cfg, 3)
	if w := (CountOptions{Workers: 8}).scanWorkers(d.NumRows()); w != 1 {
		t.Fatalf("scanWorkers(%d) = %d, want 1 (below per-worker minimum)", d.NumRows(), w)
	}
	s := lattice.FullSet(cfg.attrs)
	pcEqual(t, BuildPC(d, s), mustBuildPC(t, d, s, CountOptions{Workers: 8}))
}

// TestDifferentialSearchStyleFrontier mirrors how package search drives the
// fused scanner: a level-wise frontier of all 2-subsets then all
// 3-subsets, bound-capped, compared against the sequential sizes.
func TestDifferentialSearchStyleFrontier(t *testing.T) {
	cfg := diffConfig{rows: 2000, attrs: 6, domain: 5, nullRate: 0.05}
	d := diffDataset(t, cfg, 11)
	for _, bound := range []int{5, 25, 125} {
		for k := 2; k <= 3; k++ {
			var frontier []lattice.AttrSet
			lattice.Combinations(cfg.attrs, k, func(s lattice.AttrSet) bool {
				frontier = append(frontier, s)
				return true
			})
			for _, workers := range diffWorkerCounts {
				sizes, within := mustLabelSizes(t, d, frontier, bound, testCountOptions(workers))
				for i, s := range frontier {
					wantSize, wantWithin := LabelSize(d, s, bound)
					if sizes[i] != wantSize || within[i] != wantWithin {
						t.Fatalf("bound=%d k=%d set %v workers=%d: got (%d, %v), want (%d, %v)",
							bound, k, s, workers, sizes[i], within[i], wantSize, wantWithin)
					}
				}
			}
		}
	}
}
