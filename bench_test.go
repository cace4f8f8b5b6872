package pcbl

// Benchmark harness: one benchmark per evaluation figure of the paper (run
// cmd/experiments for the full paper-scale tables; these track the cost of
// each experiment's hot path at reduced scale), plus ablation benchmarks for
// the design choices called out in DESIGN.md.
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/experiments"
	"pcbl/internal/lattice"
	"pcbl/internal/multilabel"
	"pcbl/internal/pgstats"
	"pcbl/internal/sampling"
	"pcbl/internal/search"
	"pcbl/internal/serve"
	"pcbl/internal/spill"
)

// Bench datasets are generated once and shared.
var benchOnce sync.Once
var benchData struct {
	bluenile, compas, creditcard *dataset.Dataset
	wide                         *dataset.Dataset // forces byte-string keys
	psBlueNile                   *core.PatternSet
	psCompas                     *core.PatternSet
}

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if benchData.bluenile, err = datagen.BlueNile(20000, 1); err != nil {
			panic(err)
		}
		if benchData.compas, err = datagen.COMPAS(10000, 2); err != nil {
			panic(err)
		}
		if benchData.creditcard, err = datagen.CreditCard(6000, 3); err != nil {
			panic(err)
		}
		benchData.wide = wideDataset(8000, 16, 32)
		benchData.psBlueNile = core.DistinctTuples(benchData.bluenile)
		benchData.psCompas = core.DistinctTuples(benchData.compas)
	})
}

// wideDataset builds a schema whose domain product overflows 63 bits, so
// full-width group-by must take the byte-string key path.
func wideDataset(rows, attrs, domain int) *dataset.Dataset {
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	bld := dataset.NewBuilder("wide", names...)
	v := uint64(88172645463325252)
	row := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			row[i] = string(rune('A' + int(v%uint64(domain))))
		}
		bld.AppendStrings(row...)
	}
	d, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// --- Figure 1: nutrition-label rendering -------------------------------

func BenchmarkFig01_RenderLabel(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	s, _ := lattice.FromNames(d.AttrNames(), "Gender", "Race")
	l := core.BuildLabel(d, s)
	eval := core.Evaluate(l, benchData.psCompas, core.EvalOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Render(l, core.RenderOptions{Eval: &eval})
	}
}

// --- Figure 4: accuracy sweep (PCBL vs baselines, absolute error) ------

func benchAccuracy(b *testing.B, d *dataset.Dataset, bound int) {
	ps := core.DistinctTuples(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := search.TopDown(d, ps, search.Options{Bound: bound, FastEval: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Evaluate(res.Label, ps, core.EvalOptions{})
	}
}

func BenchmarkFig04_BlueNile_PCBL(b *testing.B) {
	benchSetup(b)
	benchAccuracy(b, benchData.bluenile, 50)
}

func BenchmarkFig04_COMPAS_PCBL(b *testing.B) {
	benchSetup(b)
	benchAccuracy(b, benchData.compas, 50)
}

func BenchmarkFig04_CreditCard_PCBL(b *testing.B) {
	benchSetup(b)
	benchAccuracy(b, benchData.creditcard, 50)
}

func BenchmarkFig04_BlueNile_Postgres(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := pgstats.Analyze(d, pgstats.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Evaluate(st, ps, core.EvalOptions{})
	}
}

func BenchmarkFig04_BlueNile_Sampling(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	size := sampling.SampleSizeFor(d, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := sampling.New(d, size, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Evaluate(est, ps, core.EvalOptions{})
	}
}

// --- Figure 5: q-error evaluation ---------------------------------------

func BenchmarkFig05_Evaluate_QError(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	res, err := search.TopDown(d, ps, search.Options{Bound: 50, FastEval: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Evaluate(res.Label, ps, core.EvalOptions{})
	}
}

// --- Figure 6: label generation time, naive vs optimized ----------------

func BenchmarkFig06_Naive_BlueNile(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Naive(d, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_TopDown_BlueNile(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.TopDown(d, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_Naive_COMPAS(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Naive(d, ps, search.Options{Bound: 30, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_TopDown_COMPAS(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.TopDown(d, ps, search.Options{Bound: 30, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: runtime vs data size -------------------------------------

func BenchmarkFig07_DataSize(b *testing.B) {
	benchSetup(b)
	for _, factor := range []int{1, 2, 4} {
		scaled, err := datagen.Scale(benchData.bluenile, factor, 9)
		if err != nil {
			b.Fatal(err)
		}
		ps := core.DistinctTuples(scaled)
		b.Run(sizeName(factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.TopDown(scaled, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(factor int) string {
	return "x" + string(rune('0'+factor))
}

// --- Figure 8: runtime vs attribute count -------------------------------

func BenchmarkFig08_AttrCount(b *testing.B) {
	benchSetup(b)
	for _, k := range []int{3, 5, 7} {
		proj, err := benchData.bluenile.Prefix(k)
		if err != nil {
			b.Fatal(err)
		}
		ps := core.DistinctTuples(proj)
		b.Run("attrs"+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.TopDown(proj, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 9: candidate sets examined -----------------------------------

func BenchmarkFig09_Candidates(b *testing.B) {
	benchSetup(b)
	nd := experiments.NamedDataset{Name: "BlueNile", D: benchData.bluenile}
	cfg := experiments.Config{Scale: experiments.ScaleTiny, Seed: 1, SamplingTrials: 1, FastEval: true}
	b.ResetTimer()
	var naive, opt int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCandidates(nd, cfg, []int{50})
		if err != nil {
			b.Fatal(err)
		}
		naive, opt = res.Points[0].Naive, res.Points[0].Optimized
	}
	b.ReportMetric(float64(naive), "naive-sets")
	b.ReportMetric(float64(opt), "opt-sets")
}

// --- Figure 10: optimal label vs drop-one sub-labels ---------------------

func BenchmarkFig10_SubLabels(b *testing.B) {
	benchSetup(b)
	nd := experiments.NamedDataset{Name: "COMPAS", D: benchData.compas}
	cfg := experiments.Config{Scale: experiments.ScaleTiny, Seed: 1, SamplingTrials: 1, FastEval: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSubLabels(nd, cfg, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core micro-benchmarks ------------------------------------------------

func BenchmarkCore_BuildLabel(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	s, _ := lattice.FromNames(d.AttrNames(), "DecileScore", "ScoreText", "RecSupervisionLevel")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.BuildLabel(d, s)
	}
}

func BenchmarkCore_Estimate(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	s, _ := lattice.FromNames(d.AttrNames(), "DecileScore", "ScoreText")
	l := core.BuildLabel(d, s)
	ps := benchData.psCompas
	row := ps.Row(0)
	attrs := ps.Attrs(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.EstimateRow(row, attrs)
	}
}

func BenchmarkCore_DistinctTuples(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = core.DistinctTuples(benchData.bluenile)
	}
}

// --- Counting engine: sharded group-by and fused frontier scans ----------
//
// Recorded baselines live in BENCH_pr1.json (note the environment block:
// wall-clock speedup requires more than one CPU; single-core runs measure
// only the sharding overhead).

var paperScaleOnce sync.Once
var paperScaleBlueNile *dataset.Dataset

// benchPaperScale returns the paper-scale synthetic dataset: Blue Nile at
// its §IV-A row count (116,300 rows).
func benchPaperScale(b *testing.B) *dataset.Dataset {
	b.Helper()
	paperScaleOnce.Do(func() {
		d, err := datagen.BlueNile(116300, 1)
		if err != nil {
			panic(err)
		}
		paperScaleBlueNile = d
	})
	return paperScaleBlueNile
}

// benchFrontier is the kind of level the search's enumeration phase sizes
// in one fused scan: every 2-subset of the dataset's attributes.
func benchFrontier(d *dataset.Dataset) []lattice.AttrSet {
	var sets []lattice.AttrSet
	lattice.Combinations(d.NumAttrs(), 2, func(s lattice.AttrSet) bool {
		sets = append(sets, s)
		return true
	})
	return sets
}

func BenchmarkBuildPCSequential(b *testing.B) {
	d := benchPaperScale(b)
	full := lattice.FullSet(d.NumAttrs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.BuildPC(d, full)
	}
}

func BenchmarkBuildPCParallel(b *testing.B) {
	d := benchPaperScale(b)
	full := lattice.FullSet(d.NumAttrs())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Pooled variants: per-worker shard slabs and key scratch cycle through
	// a shared arena, so steady-state bytes/op stays near the single result
	// slab for every worker count (the unpooled dense path allocates one
	// full-radix shard per worker).
	pool := core.NewVecPool(0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("pooled-workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: workers, Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLabelSizePerSet is the pre-engine enumeration cost: one full
// dataset scan per frontier set.
func BenchmarkLabelSizePerSet(b *testing.B) {
	d := benchPaperScale(b)
	sets := benchFrontier(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sets {
			_, _ = core.LabelSize(d, s, 50)
		}
	}
}

func BenchmarkLabelSizeFused(b *testing.B) {
	d := benchPaperScale(b)
	sets := benchFrontier(d)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.LabelSizesFused(d, sets, 50, core.CountOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// smallDomainDataset builds the frontier-sizing workload: many attributes
// with tiny domains, so the search enumerates several lattice levels and
// every candidate's key space is dense-countable.
func smallDomainDataset(rows, attrs, domain int) *dataset.Dataset {
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	bld := dataset.NewBuilder("smalldomain", names...)
	v := uint64(2463534242)
	row := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			row[i] = string(rune('A' + int(v%uint64(domain))))
		}
		bld.AppendStrings(row...)
	}
	d, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return d
}

var frontierOnce sync.Once
var frontierData *dataset.Dataset

// BenchmarkFrontierSizing measures the enumeration phase (search.Enumerate:
// frontier sizing across every lattice level, no evaluation) on a
// small-domain multi-level workload, comparing the PR 1 fused-scan path
// against the dense kernel alone, the PR 2 per-child refinement scheduler
// (scheduler-perchild: parent-PC reuse through the cache, batch tier off)
// and the full batched slot-keyed scheduler. Recorded in BENCH_pr3.json;
// the acceptance bars are scheduler ≥ 2× faster than pr1-fused and
// scheduler bytes/op ≥ 10× below the BENCH_pr2 scheduler baseline at
// equal-or-better ns/op.
func BenchmarkFrontierSizing(b *testing.B) {
	frontierOnce.Do(func() {
		frontierData = smallDomainDataset(120000, 12, 3)
	})
	d := frontierData
	bound := 200
	variants := []struct {
		name string
		opts search.Options
	}{
		{"pr1-fused", search.Options{Bound: bound, Workers: 1, DisableRefine: true, DenseLimit: -1}},
		{"dense-only", search.Options{Bound: bound, Workers: 1, DisableRefine: true}},
		{"scheduler-perchild", search.Options{Bound: bound, Workers: 1, DisableBatchRefine: true}},
		{"scheduler", search.Options{Bound: bound, Workers: 1}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cands, stats, err := search.Enumerate(d, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(cands) == 0 || stats.SizeComputed == 0 {
					b.Fatal("empty enumeration")
				}
			}
		})
	}
}

// --- External-memory spill group-by (PR 4) --------------------------------
//
// Recorded baselines live in BENCH_pr4.json. The spill tier's claim is
// about live heap, not allocation churn: grouping state at any instant is
// one on-disk run's map (bounded by CountOptions.MemBudget) instead of the
// whole distinct-key space. BenchmarkSpillGroupBy tracks the end-to-end
// engine cost of both tiers (bytes/op gated by the benchguard manifest);
// BenchmarkSpillLiveHeap measures the live-heap bound directly, forcing a
// GC while each run's map is live and reporting the peak.

var spillBenchOnce sync.Once
var spillBenchData *dataset.Dataset

// spillBenchSetup returns a byte-key dataset (domain product overflows
// uint64, nearly all rows distinct — the unbounded-domain worst case) and
// a memory budget forcing its full-set group-by into >= 6 on-disk runs.
func spillBenchSetup(b *testing.B) (d *dataset.Dataset, budget int64) {
	b.Helper()
	spillBenchOnce.Do(func() { spillBenchData = wideDataset(60000, 12, 40) })
	d = spillBenchData
	// The engine's deterministic footprint estimate for the byte-map
	// kernel is rows × (2·attrs + 64) bytes (distinct <= rows).
	footprint := int64(d.NumRows()) * int64(2*d.NumAttrs()+64)
	return d, footprint / 6
}

func BenchmarkSpillGroupBy(b *testing.B) {
	d, budget := spillBenchSetup(b)
	full := lattice.FullSet(d.NumAttrs())
	b.Run("inmemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spill", func(b *testing.B) {
		var stats core.ScanStats
		for i := 0; i < b.N; i++ {
			pc, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: 1, MemBudget: budget, Stats: &stats})
			if err != nil {
				b.Fatal(err)
			}
			pc.ReleaseSpill() // merge-on-read result: drop the retained runs
		}
		if stats.Spilled != int64(b.N) {
			b.Fatalf("spilled %d of %d builds", stats.Spilled, b.N)
		}
		b.ReportMetric(float64(stats.SpillRuns)/float64(b.N), "runs/op")
	})
	b.Run("spill-size", func(b *testing.B) {
		var stats core.ScanStats
		opts := core.CountOptions{Workers: 1, MemBudget: budget, Stats: &stats}
		for i := 0; i < b.N; i++ {
			_, within, err := core.LabelSizesFused(d, []lattice.AttrSet{full}, -1, opts)
			if err != nil || !within[0] {
				b.Fatalf("unbounded sizing reported out of bound (err %v)", err)
			}
		}
		if stats.Spilled != int64(b.N) {
			b.Fatalf("spilled %d of %d sizings", stats.Spilled, b.N)
		}
	})
}

// BenchmarkSpillSizeWorkers sweeps the counting workers over a spilled
// frontier sizing (core.LabelSizesFused routes the over-budget byte-key
// set onto an external spill scan): the partition phase shards rows and
// the count phase splits the key-disjoint runs K-way, so on a multi-core
// runner the sizing wall clock scales with workers like the in-memory
// kernels do. Recorded in BENCH_pr5.json (note the runner CPU count).
func BenchmarkSpillSizeWorkers(b *testing.B) {
	d, budget := spillBenchSetup(b)
	sets := []lattice.AttrSet{lattice.FullSet(d.NumAttrs())}
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var stats core.ScanStats
			opts := core.CountOptions{Workers: workers, MemBudget: budget, Stats: &stats}
			for i := 0; i < b.N; i++ {
				sizes, within, err := core.LabelSizesFused(d, sets, -1, opts)
				if err != nil || !within[0] || sizes[0] == 0 {
					b.Fatalf("unbounded spilled sizing failed (err %v)", err)
				}
			}
			if stats.Spilled != int64(b.N) {
				b.Fatalf("spilled %d of %d sizings", stats.Spilled, b.N)
			}
			b.ReportMetric(float64(stats.SpillRuns)/float64(b.N), "runs/op")
		})
	}
}

// u64SpillDataset is the uint64-record spill workload: 8 domain-40
// attributes give a 40^8 mixed-radix key — fits uint64, far beyond the
// dense tier — so a budgeted full-set group-by spills fixed-width 8-byte
// records instead of 16-byte byte-string records.
var u64SpillOnce sync.Once
var u64SpillData *dataset.Dataset

// BenchmarkSpillRecordFormat compares spilled sizing throughput of the two
// record formats at equal row count: byte-string records (key overflows
// uint64; 2 bytes per member) vs fixed-width uint64 records (8 bytes, no
// per-key string materialization in the count maps). MB/s is record bytes
// through the partition+count pipeline.
func BenchmarkSpillRecordFormat(b *testing.B) {
	d, budget := spillBenchSetup(b)
	u64SpillOnce.Do(func() { u64SpillData = wideDataset(60000, 8, 40) })
	du := u64SpillData
	budgetU := spillBudgetU64(du, 6)
	run := func(b *testing.B, d *dataset.Dataset, budget int64, recW int, wantU64 int64) {
		full := lattice.FullSet(d.NumAttrs())
		var stats core.ScanStats
		opts := core.CountOptions{Workers: 1, MemBudget: budget, Stats: &stats}
		b.SetBytes(int64(d.NumRows() * recW))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, within, err := core.LabelSizesFused(d, []lattice.AttrSet{full}, -1, opts)
			if err != nil || !within[0] {
				b.Fatalf("unbounded sizing reported out of bound (err %v)", err)
			}
		}
		if stats.Spilled != int64(b.N) || stats.SpilledU64 != wantU64*int64(b.N) {
			b.Fatalf("Spilled=%d SpilledU64=%d over %d ops", stats.Spilled, stats.SpilledU64, b.N)
		}
	}
	b.Run("bytes", func(b *testing.B) { run(b, d, budget, 2*d.NumAttrs(), 0) })
	b.Run("u64", func(b *testing.B) { run(b, du, budgetU, 8, 1) })
}

// spillBudgetU64 mirrors the engine's uint64-map footprint model
// (distinct-bound × (8 record bytes + 48 map-entry bytes)) and returns a
// budget forcing >= minRuns runs.
func spillBudgetU64(d *dataset.Dataset, minRuns int) int64 {
	return int64(d.NumRows())*(8+48)/int64(minRuns) - 1
}

// BenchmarkSpillLiveHeap drives the spill writer directly so it can force
// a GC at the peak moment — each run's map fully counted and still live —
// and report real live-heap bytes. The in-memory variant holds the whole
// distinct-key map at its peak (rows×keys-bound); the spill variant's peak
// must track the budget instead.
func BenchmarkSpillLiveHeap(b *testing.B) {
	d, budget := spillBenchSetup(b)
	k := core.NewKeyer(d, lattice.FullSet(d.NumAttrs()))
	cols := make([][]uint16, d.NumAttrs())
	for i := range cols {
		cols[i] = d.Col(i)
	}
	rows := d.NumRows()
	recW := 2 * d.NumAttrs()
	baseline := liveHeap()
	b.Run("inmemory", func(b *testing.B) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			m := make(map[string]int)
			var buf []byte
			for r := 0; r < rows; r++ {
				rec, ok := k.AppendBytesRow(buf[:0], cols, r)
				buf = rec
				if ok {
					m[string(rec)]++
				}
			}
			peak = max(peak, liveHeap())
			if len(m) == 0 {
				b.Fatal("empty group-by")
			}
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
	})
	b.Run("spill", func(b *testing.B) {
		runs := 6
		var peak uint64
		for i := 0; i < b.N; i++ {
			w, err := spill.NewWriter(spill.Config{RecWidth: recW, Runs: runs})
			if err != nil {
				b.Fatal(err)
			}
			sw := w.Shard()
			var buf []byte
			for r := 0; r < rows; r++ {
				rec, ok := k.AppendBytesRow(buf[:0], cols, r)
				buf = rec
				if ok {
					sw.Add(rec)
				}
			}
			if err := sw.Close(); err != nil {
				w.Cleanup()
				b.Fatal(err)
			}
			size, _, err := w.CountRunsCtx(nil, -1, 1, func(_ int, m map[string]int) bool {
				peak = max(peak, liveHeap())
				return true
			})
			w.Cleanup()
			if err != nil || size == 0 {
				b.Fatalf("spill count: size=%d err=%v", size, err)
			}
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
		b.ReportMetric(float64(budget), "budget-B")
	})
	// The build variants measure the PR 5 claim: a *materialized* spilled
	// build (the PR 4 behaviour — every run map merged into one result
	// map) holds the whole distinct-key space live at its peak, blowing
	// the budget the scan respected; the merge-on-read build keeps the
	// result on disk and its peak — the partial merge dropped at the
	// budget crossing plus one run map — stays within ~2x the budget.
	b.Run("build-materialized", func(b *testing.B) {
		runs := 6
		var peak uint64
		for i := 0; i < b.N; i++ {
			w, err := spill.NewWriter(spill.Config{RecWidth: recW, Runs: runs})
			if err != nil {
				b.Fatal(err)
			}
			sw := w.Shard()
			var buf []byte
			for r := 0; r < rows; r++ {
				rec, ok := k.AppendBytesRow(buf[:0], cols, r)
				buf = rec
				if ok {
					sw.Add(rec)
				}
			}
			if err := sw.Close(); err != nil {
				w.Cleanup()
				b.Fatal(err)
			}
			merged := make(map[string]int)
			_, _, err = w.CountRunsCtx(nil, -1, 1, func(_ int, m map[string]int) bool {
				for key, c := range m {
					merged[key] = c
				}
				return true
			})
			if err != nil {
				w.Cleanup()
				b.Fatal(err)
			}
			peak = max(peak, liveHeap()) // merged result map fully live
			runtime.KeepAlive(merged)
			w.Cleanup()
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
		b.ReportMetric(float64(budget), "budget-B")
	})
	b.Run("build-mergeonread", func(b *testing.B) {
		full := lattice.FullSet(d.NumAttrs())
		probe := pcProbeVals(d)
		var peak uint64
		for i := 0; i < b.N; i++ {
			pc, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: 1, MemBudget: budget})
			if err != nil || !pc.Spilled() {
				b.Fatalf("build did not stay merge-on-read (err %v)", err)
			}
			peak = max(peak, liveHeap()) // result live, runs on disk
			for _, vals := range probe {
				// Fault in the pinned hot-run cache.
				if _, err := pc.LookupValsCtx(nil, vals); err != nil {
					b.Fatal(err)
				}
			}
			peak = max(peak, liveHeap())
			pc.ReleaseSpill()
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
		b.ReportMetric(float64(budget), "budget-B")
	})
}

// BenchmarkSharedSpillPartition measures the shared-scan partition phase:
// a frontier of n spilled uint64-key sets (11-attribute subsets of the
// wide dataset, each over budget) sized through one LabelSizesFused call —
// one shared dataset pass — versus one LabelSizesFused call per set (n
// one-target passes, the pre-shared baseline). partition-passes/op counts
// dataset scans spent
// partitioning and rows-read/op the partition-phase row reads they imply:
// shared mode stays at one pass while the baseline grows linearly with n.
func BenchmarkSharedSpillPartition(b *testing.B) {
	d, budget := spillBenchSetup(b)
	full := lattice.FullSet(d.NumAttrs())
	for _, nsets := range []int{1, 4, 8} {
		sets := make([]lattice.AttrSet, nsets)
		for i := range sets {
			// Dropping one attribute keeps the mixed-radix key within
			// uint64 (41^11 < 2^63) with a distinct-key bound of the row
			// count — far over the budget, so every set spills.
			sets[i] = full.Remove(i)
		}
		// Each mode's frontier calls: the whole frontier at once, or one
		// single-set frontier per set.
		perset := make([][]lattice.AttrSet, nsets)
		for i, s := range sets {
			perset[i] = []lattice.AttrSet{s}
		}
		for _, mode := range []struct {
			name      string
			frontiers [][]lattice.AttrSet
		}{{"shared", [][]lattice.AttrSet{sets}}, {"perset", perset}} {
			b.Run(fmt.Sprintf("sets=%d/%s", nsets, mode.name), func(b *testing.B) {
				var stats core.ScanStats
				opts := core.CountOptions{Workers: 1, MemBudget: budget, Stats: &stats}
				for i := 0; i < b.N; i++ {
					for _, f := range mode.frontiers {
						sizes, within, err := core.LabelSizesFused(d, f, -1, opts)
						if err != nil || !within[0] || sizes[0] == 0 {
							b.Fatalf("unbounded sizing failed (err %v)", err)
						}
					}
				}
				if stats.Spilled != int64(nsets)*int64(b.N) || stats.SpillFallbacks != 0 {
					b.Fatalf("spilled %d sets (%d fallbacks), want %d spilled",
						stats.Spilled, stats.SpillFallbacks, int64(nsets)*int64(b.N))
				}
				passes := float64(stats.Spilled-stats.SpillPassesSaved) / float64(b.N)
				b.ReportMetric(passes, "partition-passes/op")
				b.ReportMetric(passes*float64(d.NumRows()), "rows-read/op")
			})
		}
	}
	// Live-heap check on the partition phase at its widest: the
	// MultiWriter is driven directly so a GC can run while all 8 targets'
	// flush buffers are live at once — the peak must track the shared
	// budget slice (MemBudget/2 for one worker), not the target count.
	b.Run("sets=8/liveheap", func(b *testing.B) {
		const targets, runs = 8, 6
		cfgs := make([]spill.Config, targets)
		for i := range cfgs {
			cfgs[i] = spill.Config{RecWidth: 8, Runs: runs}
		}
		rows := d.NumRows()
		baseline := liveHeap()
		var peak uint64
		for i := 0; i < b.N; i++ {
			mw := spill.NewMultiWriter(cfgs, budget/2)
			ms := mw.Shard()
			v := uint64(88172645463325252)
			for r := 0; r < rows; r++ {
				v ^= v << 13
				v ^= v >> 7
				v ^= v << 17
				for t := 0; t < targets; t++ {
					ms.AddU64(t, v+uint64(t))
				}
			}
			peak = max(peak, liveHeap()) // every target's buffers live
			ms.Close()
			for t := 0; t < targets; t++ {
				if err := mw.Err(t); err != nil {
					mw.Cleanup()
					b.Fatal(err)
				}
				size, _, err := mw.Writer(t).CountRunsU64Ctx(nil, -1, 1, nil)
				if err != nil || size == 0 {
					mw.Cleanup()
					b.Fatalf("target %d: size=%d err=%v", t, size, err)
				}
				mw.CleanupTarget(t)
			}
			mw.Cleanup()
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
		b.ReportMetric(float64(budget), "budget-B")
	})
}

// pcProbeVals samples a few rows of the dataset as lookup probes.
func pcProbeVals(d *dataset.Dataset) [][]uint16 {
	step := d.NumRows() / 32
	if step == 0 {
		step = 1
	}
	var probes [][]uint16
	for r := 0; r < d.NumRows(); r += step {
		vals := make([]uint16, d.NumAttrs())
		for a := range vals {
			vals[a] = d.Col(a)[r]
		}
		probes = append(probes, vals)
	}
	return probes
}

// liveHeap forces a collection and returns the surviving heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// --- Concurrent spilled reads and the serve daemon (PR 6) -----------------
//
// Recorded baselines live in BENCH_pr6.json. The read-path claim is about
// concurrency, not single-thread speed: pinned hot runs are served from an
// immutable snapshot with no lock at all, so lookup throughput should scale
// with reader count on a multi-core runner. On a single visible CPU the
// readers=N sweep measures only the coordination overhead (the goroutines
// time-slice); re-record on a multi-core machine before reading it as a
// scaling result.

var lookupBenchOnce sync.Once
var lookupBench struct {
	pc     *core.PC
	probes [][]uint16
}
var lookupSink atomic.Int64

func lookupBenchSetup(b *testing.B) {
	b.Helper()
	lookupBenchOnce.Do(func() {
		u64SpillOnce.Do(func() { u64SpillData = wideDataset(60000, 8, 40) })
		d := u64SpillData
		full := lattice.FullSet(d.NumAttrs())
		oracle, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: 1})
		if err != nil {
			panic(err)
		}
		// Budget one byte under the result's modeled uint64-map footprint:
		// the build stays merge-on-read while the read side can pin (nearly)
		// every run into the lock-free hot cache.
		budget := int64(oracle.Size())*(8+48) - 1
		pc, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: 1, MemBudget: budget})
		if err != nil || !pc.Spilled() {
			panic(fmt.Sprintf("lookup benchmark build did not stay merge-on-read (err %v)", err))
		}
		probes := pcProbeVals(d)
		for _, vals := range probes {
			// Fault the probed runs into the hot cache.
			if _, err := pc.LookupValsCtx(nil, vals); err != nil {
				panic(err)
			}
		}
		lookupBench.pc, lookupBench.probes = pc, probes
	})
}

// BenchmarkSpilledPCLookup sweeps concurrent readers over a merge-on-read
// PC whose runs are pinned: every lookup takes the lock-free hot-snapshot
// path. hot-frac reports the fraction of spilled reads served by it.
func BenchmarkSpilledPCLookup(b *testing.B) {
	lookupBenchSetup(b)
	pc, probes := lookupBench.pc, lookupBench.probes
	for _, readers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			before, _ := pc.SpillReadStats()
			b.SetParallelism(readers)
			b.RunParallel(func(pb *testing.PB) {
				var total, i int
				for pb.Next() {
					c, err := pc.LookupValsCtx(nil, probes[i%len(probes)])
					if err != nil {
						b.Error(err)
						return
					}
					total += c
					i++
				}
				lookupSink.Add(int64(total))
			})
			after, _ := pc.SpillReadStats()
			reads := (after.HotHits + after.FloatingHits + after.RunLoads) -
				(before.HotHits + before.FloatingHits + before.RunLoads)
			if reads > 0 {
				b.ReportMetric(float64(after.HotHits-before.HotHits)/float64(reads), "hot-frac")
			}
		})
	}
}

var serveBenchOnce sync.Once
var serveBench struct {
	ts   *httptest.Server
	urls []string
}

// benchServeDataset builds the serve workload: u64-keyable shape whose
// full-set group-by spills under a 16 KiB budget (the serve-test shape).
func benchServeDataset(rows, attrs, domain int) *dataset.Dataset {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder("servebench", names...)
	v := uint64(88172645463325252)
	row := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			row[i] = fmt.Sprintf("v%d", v%uint64(domain))
		}
		bld.AppendStrings(row...)
	}
	d, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return d
}

func serveBenchSetup(b *testing.B) {
	b.Helper()
	serveBenchOnce.Do(func() {
		d := benchServeDataset(4000, 4, 300)
		l, err := core.BuildLabelOptsCtx(nil, d, lattice.FullSet(d.NumAttrs()), core.CountOptions{MemBudget: 16 << 10})
		if err != nil || !l.PC().Spilled() {
			panic(fmt.Sprintf("serve benchmark label did not spill (err %v)", err))
		}
		tmp, err := os.MkdirTemp("", "pcbl-serve-bench-")
		if err != nil {
			panic(err)
		}
		dir := filepath.Join(tmp, "artifact")
		if err := SaveLabelArtifact(l, dir); err != nil {
			panic(err)
		}
		l.ReleaseSpill()
		rl, _, err := OpenLabelArtifact(dir)
		if err != nil {
			panic(err)
		}
		serveBench.ts = httptest.NewServer(serve.NewHandler(rl))
		step := d.NumRows() / 64
		for r := 0; r < d.NumRows(); r += step {
			var parts []string
			for a := 0; a < d.NumAttrs(); a++ {
				parts = append(parts, fmt.Sprintf("%s=%s", d.Attr(a).Name(), d.Value(r, a)))
			}
			serveBench.urls = append(serveBench.urls,
				serveBench.ts.URL+"/v1/count?q="+url.QueryEscape(strings.Join(parts, ",")))
		}
		// Warm every probed run into the hot cache so the measured requests
		// exercise the steady-state (lock-free) read path.
		warm := serveBench.ts.Client()
		for _, u := range serveBench.urls {
			resp, err := warm.Get(u)
			if err != nil {
				panic(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// BenchmarkServeQPS measures end-to-end request latency of the query daemon
// over a reopened spilled artifact: keep-alive HTTP clients hitting
// /v1/count with full-set patterns. ns/op is the inverse of aggregate QPS;
// p50-ns/p99-ns report the per-request latency distribution, so a
// serve-path regression that only fattens the tail (lock contention, a
// slow run reload) is visible even when the mean holds.
func BenchmarkServeQPS(b *testing.B) {
	serveBenchSetup(b)
	urls := serveBench.urls
	for _, clients := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			client := &http.Client{Transport: &http.Transport{
				MaxIdleConns: 4 * clients, MaxIdleConnsPerHost: 4 * clients,
			}}
			defer client.CloseIdleConnections()
			var fails atomic.Int64
			var latMu sync.Mutex
			var lats []time.Duration
			b.SetParallelism(clients)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				local := make([]time.Duration, 0, 1024)
				for pb.Next() {
					start := time.Now()
					resp, err := client.Get(urls[i%len(urls)])
					i++
					if err != nil {
						fails.Add(1)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						fails.Add(1)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					local = append(local, time.Since(start))
				}
				latMu.Lock()
				lats = append(lats, local...)
				latMu.Unlock()
			})
			b.StopTimer()
			if fails.Load() > 0 {
				b.Fatalf("%d of %d requests failed", fails.Load(), b.N)
			}
			if len(lats) > 0 {
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				quantile := func(q float64) float64 {
					idx := int(q * float64(len(lats)-1))
					return float64(lats[idx])
				}
				b.ReportMetric(quantile(0.50), "p50-ns")
				b.ReportMetric(quantile(0.99), "p99-ns")
			}
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) -------------------

// Sorted early-termination evaluation (§IV-C) vs exact scan.
func BenchmarkAblation_EvalMode_Exact(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := core.BuildLabel(d, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.MaxAbsError(l, ps, core.MaxErrOptions{Workers: 1})
	}
}

func BenchmarkAblation_EvalMode_SortedEarlyStop(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	ps.SortByCountDesc()
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := core.BuildLabel(d, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.MaxAbsError(l, ps, core.MaxErrOptions{Sorted: true})
	}
}

// Mixed-radix uint64 keys vs byte-string fallback keys for group-by.
func BenchmarkAblation_Key_Uint64(b *testing.B) {
	benchSetup(b)
	d := benchData.compas // full-width keys fit in uint64
	full := lattice.FullSet(d.NumAttrs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.BuildPC(d, full)
	}
}

func BenchmarkAblation_Key_Bytes(b *testing.B) {
	benchSetup(b)
	d := benchData.wide // 32^16 overflows: byte-string path
	full := lattice.FullSet(d.NumAttrs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.BuildPC(d, full)
	}
}

// Parallel vs sequential candidate evaluation.
func BenchmarkAblation_Parallel_Workers1(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := core.BuildLabel(d, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Evaluate(l, ps, core.EvalOptions{Workers: 1})
	}
}

func BenchmarkAblation_Parallel_WorkersMax(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := core.BuildLabel(d, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Evaluate(l, ps, core.EvalOptions{})
	}
}

// Label-size early abort at the bound vs full distinct count.
func BenchmarkAblation_SizeAbort_On(b *testing.B) {
	benchSetup(b)
	d := benchData.creditcard
	s := lattice.NewAttrSet(0, 1, 2, 3, 4, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.LabelSize(d, s, 50)
	}
}

func BenchmarkAblation_SizeAbort_Off(b *testing.B) {
	benchSetup(b)
	d := benchData.creditcard
	s := lattice.NewAttrSet(0, 1, 2, 3, 4, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.LabelSize(d, s, -1)
	}
}

// Branch-and-bound evaluation cutoff (beyond paper) on/off.
func BenchmarkAblation_BranchAndBound_Off(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.TopDown(d, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BranchAndBound_On(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.TopDown(d, ps, search.Options{Bound: 50, FastEval: true, BranchAndBound: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Single label vs multi-label estimation (the future-work extension).
func BenchmarkAblation_SingleLabel(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	s, _ := lattice.FromNames(d.AttrNames(), "DecileScore", "ScoreText", "RecSupervisionLevel")
	l := core.BuildLabel(d, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Evaluate(l, ps, core.EvalOptions{})
	}
}

func BenchmarkAblation_MultiLabel(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	s1, _ := lattice.FromNames(d.AttrNames(), "DecileScore", "ScoreText", "RecSupervisionLevel")
	s2, _ := lattice.FromNames(d.AttrNames(), "Gender", "Race", "Age")
	m, err := multilabel.New([]*core.Label{core.BuildLabel(d, s1), core.BuildLabel(d, s2)}, multilabel.BestOverlap)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Evaluate(m, ps, core.EvalOptions{})
	}
}

// --- Cancellation overhead (PR 10) ---------------------------------------
//
// The context plumbing's hot-path cost: an unarmed engine (nil Ctx) pays a
// nil compare per block, an armed one a non-blocking channel poll per
// fusedBlockRows rows — ~28 polls across this 116300-row build. Recorded
// in BENCH_pr10.json; the acceptance bar is armed ns/op within 2% of nil
// (i.e. inside run-to-run noise on a quiet machine).
func BenchmarkCancellationOverhead(b *testing.B) {
	d := benchPaperScale(b)
	full := lattice.FullSet(d.NumAttrs())
	b.Run("nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("armed", func(b *testing.B) {
		// WithCancel makes Done() non-nil, so every per-block check takes
		// the polling path; the context never fires during the build.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildPCParallel(d, full, core.CountOptions{Workers: 1, Ctx: ctx}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Incremental maintenance: merge vs rebuild ---------------------------
//
// The headline economics of PR 9: when 1% of the rows are appended, the
// update path reads 1% of the dataset (rows-read/op tracks it) while the
// rebuild reads all of it. Recorded in BENCH_pr9.json.

// benchIncrementalSplit slices the paper-scale dataset into a 99% base and
// a 1% appended suffix.
func benchIncrementalSplit(b *testing.B) (d, base, delta *dataset.Dataset) {
	b.Helper()
	d = benchPaperScale(b)
	cut := d.NumRows() - d.NumRows()/100
	var err error
	if base, err = d.Slice(0, cut); err != nil {
		b.Fatal(err)
	}
	if delta, err = d.Slice(cut, d.NumRows()); err != nil {
		b.Fatal(err)
	}
	return d, base, delta
}

// mustBenchLabel builds a label whose options arm no context, so an error
// is a bug.
func mustBenchLabel(b *testing.B, d *dataset.Dataset, s lattice.AttrSet, opts core.CountOptions) *core.Label {
	b.Helper()
	l, err := core.BuildLabelOptsCtx(nil, d, s, opts)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkLabelMerge times only Label.Merge: folding a prebuilt 1% delta
// into a prebuilt base label. Rebuilding the mutated base is untimed.
func BenchmarkLabelMerge(b *testing.B) {
	d, base, delta := benchIncrementalSplit(b)
	s := lattice.FullSet(d.NumAttrs())
	dl := mustBenchLabel(b, delta, s, core.CountOptions{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bl := mustBenchLabel(b, base, s, core.CountOptions{Workers: 1})
		b.StartTimer()
		if _, _, err := bl.Merge(dl, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateVsRebuild compares the two ways to refresh a label after
// a 1% append: counting just the suffix and merging, vs rebuilding over
// every row. rows-read/op is ScanStats.RowsScanned — the update's stays at
// the delta size regardless of history length.
func BenchmarkUpdateVsRebuild(b *testing.B) {
	d, base, delta := benchIncrementalSplit(b)
	s := lattice.FullSet(d.NumAttrs())
	b.Run("rebuild", func(b *testing.B) {
		var st core.ScanStats
		for i := 0; i < b.N; i++ {
			_ = mustBenchLabel(b, d, s, core.CountOptions{Workers: 1, Stats: &st})
		}
		b.ReportMetric(float64(st.RowsScanned)/float64(b.N), "rows-read/op")
	})
	b.Run("update-1pct", func(b *testing.B) {
		var st core.ScanStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bl := mustBenchLabel(b, base, s, core.CountOptions{Workers: 1})
			b.StartTimer()
			dl := mustBenchLabel(b, delta, s, core.CountOptions{Workers: 1, Stats: &st})
			if _, _, err := bl.Merge(dl, -1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.RowsScanned)/float64(b.N), "rows-read/op")
	})
}
