// Package search implements the optimal-label computation of paper §III:
// the naive level-wise algorithm and the optimized top-down heuristic
// (Algorithm 1) that traverses the label lattice through the gen operator,
// keeps only maximal in-bound candidates (justified by Proposition 3.2), and
// prunes every subtree rooted at a set whose label already exceeds the size
// bound (sound because label size is monotone in the attribute set).
package search

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// Options configures a label search.
type Options struct {
	// Bound is B_s, the maximum admissible label size |P_S|. Required.
	Bound int
	// FastEval enables the paper's sorted early-termination max-error scan
	// (§IV-C). The pattern set is sorted by count once and reused.
	FastEval bool
	// BranchAndBound aborts a candidate's evaluation as soon as its
	// running max error exceeds the best error found so far. This is an
	// optimization beyond the paper; it never changes the result.
	BranchAndBound bool
	// Workers bounds parallelism in both phases: the enumeration phase
	// shards its fused label-size scans across this many workers (see
	// core.LabelSizesFused), and the final evaluation phase scores this
	// many candidates concurrently. runtime.NumCPU() when 0, 1 for a
	// single-threaded run. Note that enumeration always sizes frontiers
	// through the fused batch scan (a beyond-paper optimization, result-
	// identical to per-set scanning), so Workers=1 timings are not
	// comparable to the paper's one-scan-per-set cost model.
	//
	// When no attribute set of size ≥ 2 yields an in-bound label, both
	// algorithms fall back to in-bound singletons, and failing that to
	// the empty set (pure independence estimation) — the paper leaves
	// this degenerate case unspecified.
	Workers int

	// DenseLimit overrides the counting engine's dense-kernel threshold
	// for raw dataset scans (core.CountOptions.DenseLimit): 0 means the
	// engine default, a negative value forces scans onto the hash-map
	// kernels. Refinement's compact-space counting is not affected; set
	// DisableRefine as well to reproduce the full pre-dense (PR 1)
	// behaviour. Mainly for benchmarks and differential tests.
	DenseLimit int

	// DisableRefine turns off parent-PC reuse: every frontier is sized by
	// raw fused scans, the pre-refinement engine behaviour. The result is
	// identical either way (refinement is exact); only the work changes.
	DisableRefine bool

	// DisableBatchRefine turns off the batched slot-keyed refinement tier
	// only: dense-keyable candidates are sized through the per-child
	// cached-parent path (Refine/RefineSize against a bounded-memory
	// PCCache — the PR 2 engine behaviour) instead of batched sibling
	// passes over virtual parent group vectors. Result-identical; the knob
	// exists for ablation.
	DisableBatchRefine bool

	// CacheBudget bounds the refinement cache's retained memory in bytes;
	// 0 means core.DefaultPCCacheBudget. When the budget fills, candidate
	// sets without a cached parent fall back to raw fused scans.
	CacheBudget int64

	// MemBudget bounds the in-memory grouping state of a single raw
	// group-by in bytes (core.CountOptions.MemBudget): map- and byte-key
	// candidates whose estimated map footprint exceeds it are scheduled
	// onto external spill scans — hash-partitioned on-disk runs (uint64 or
	// byte record format, matching the key encoding) counted K-way in
	// parallel — instead of joining the fused in-memory scan, and budgeted
	// label builds whose result map models over the budget keep their runs
	// and serve lookups merge-on-read. Refinement stays in-memory-only:
	// its compact spaces are bounded by an in-bound parent's group count
	// times one attribute domain, so the budget never applies there. Zero
	// means unlimited. Results are identical either way;
	// Stats.SpilledSets/SpilledU64Sets/SpillRuns/SpillParallelRuns/
	// SpillBytes report the tier's use.
	MemBudget int64

	// SpillDir overrides where spill run files are written (system temp
	// directory when empty). Files live in private subdirectories removed
	// when each scan finishes.
	SpillDir string

	// FS is the filesystem seam spill scans write runs through
	// (core.CountOptions.FS); nil means the real OS filesystem. Fault
	// injection scripts failures here.
	FS iofault.FS

	// Ctx cancels the search cooperatively — cancel it or give it a
	// deadline to bound a runaway search. Both phases poll it: enumeration
	// at row-block granularity inside fused sizing scans and refinement
	// passes (and between refinement chunks), evaluation between candidate
	// labels and at block granularity inside each label build. A fired
	// context abandons the search, releases every spill-backed label
	// already built (no temp files survive), and returns the typed context
	// error (context.Canceled or context.DeadlineExceeded). Nil means the
	// search never cancels.
	Ctx context.Context
}

// ctxErr reports a fired search context; nil ctx never fires.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// fusedBatch bounds how many candidate sets one fused scan tracks at once,
// keeping per-worker frontier memory at fusedBatch × (Bound+1) set entries
// while still amortizing column access across the whole batch.
const fusedBatch = 256

// Stats reports the work a search performed; Fig 6–9 of the paper are
// plotted from these counters and timings.
type Stats struct {
	// SizeComputed is the number of attribute sets whose label size was
	// computed (every set the algorithm "examined").
	SizeComputed int
	// InBound is the number of examined sets whose label fit the bound
	// ("# cands generated" for the optimized heuristic in Fig 9).
	InBound int
	// Evaluated is the number of candidate labels whose error was
	// computed in the final phase.
	Evaluated int
	// PatternsScanned is the total number of (label, pattern) estimate
	// evaluations across the final phase; early termination keeps it far
	// below Evaluated × |P|.
	PatternsScanned int64
	// RefinedSets counts examined sets sized by refinement — batched
	// sibling passes or per-child refinement of a cached parent PC —
	// instead of a raw scan.
	RefinedSets int
	// ScannedSets counts examined sets sized by raw fused dataset scans —
	// sets with no refinable parent, or every set when refinement is off.
	ScannedSets int
	// BatchRefines counts batched sibling-refinement passes: each sized a
	// whole batch of same-parent candidates in one blocked pass over the
	// parent's (virtual) group assignment (core.RefineBatch).
	BatchRefines int
	// PoolHits and PoolMisses report the slab pool's cumulative counters:
	// how often a group vector, count slab or key-block scratch was
	// recycled from the arena versus freshly allocated.
	PoolHits, PoolMisses int64
	// DenseSets counts raw-scanned sets the engine routed to the dense
	// flat-array kernel rather than a hash map.
	DenseSets int
	// SpilledSets counts raw-scanned sets the engine routed to the
	// external-memory spill group-by (map- or byte-key sets over
	// Options.MemBudget). Zero on fully in-memory runs.
	SpilledSets int
	// SpilledU64Sets counts the subset of SpilledSets spilled with the
	// fixed-width uint64 record format (mixed-radix key fits uint64); the
	// remainder spilled byte-string records.
	SpilledU64Sets int
	// SpillRuns totals the on-disk partitions those sets were split into.
	SpillRuns int
	// SpillParallelRuns totals the runs counted by multi-worker (parallel)
	// run-counting phases.
	SpillParallelRuns int
	// SpillBytes totals the bytes written to spill run files.
	SpillBytes int64
	// SpillFallbacks counts spilled sets that hit disk trouble and fell
	// back to the unbounded in-memory kernel (results stay correct; the
	// memory budget was not honored for those sets).
	SpillFallbacks int
	// SharedSpillPasses counts shared partition passes: each frontier
	// partitions all of its spilled sets in one dataset scan, and a scan
	// counts here when it serves two or more sets.
	SharedSpillPasses int
	// SpillPassesSaved totals the dataset partition scans the shared
	// passes avoided against sizing each set alone (sets-in-pass minus
	// one, summed over passes).
	SpillPassesSaved int
	// SearchTime covers candidate enumeration (label-size computation).
	SearchTime time.Duration
	// EvalTime covers the find-best-candidate phase (paper §IV-C reports
	// its share of total runtime).
	EvalTime time.Duration
}

// Total returns the end-to-end search duration.
func (s Stats) Total() time.Duration { return s.SearchTime + s.EvalTime }

// Result is the outcome of a label search.
type Result struct {
	// Attrs is the chosen attribute set S.
	Attrs lattice.AttrSet
	// Label is L_S(D).
	Label *core.Label
	// MaxErr is Err(L_S(D), P).
	MaxErr float64
	// Size is |P_S|.
	Size int
	// Stats describes the work performed.
	Stats Stats
}

// sizeFrontier computes the label sizes of a frontier of candidate sets
// with the fused multi-set scanner (batched to bound memory) and invokes
// visit for each set with its in-bound verdict, updating the examined/
// in-bound counters. One call scans the dataset ⌈len(sets)/fusedBatch⌉
// times instead of len(sets) times. This is the raw-scan path; the level
// sizer below additionally schedules parent-PC refinements around it.
func sizeFrontier(d *dataset.Dataset, sets []lattice.AttrSet, opts Options, stats *Stats, visit func(s lattice.AttrSet, within bool)) error {
	co := core.CountOptions{Workers: opts.Workers, DenseLimit: opts.DenseLimit, MemBudget: opts.MemBudget, SpillDir: opts.SpillDir, FS: opts.FS, Ctx: opts.Ctx}
	for lo := 0; lo < len(sets); lo += fusedBatch {
		hi := lo + fusedBatch
		if hi > len(sets) {
			hi = len(sets)
		}
		_, within, err := core.LabelSizesFused(d, sets[lo:hi], opts.Bound, co)
		if err != nil {
			return err
		}
		for j, ok := range within {
			stats.SizeComputed++
			if ok {
				stats.InBound++
			}
			visit(sets[lo+j], ok)
		}
	}
	return nil
}

// refineBatch bounds how many refinement tasks run between cache updates,
// capping the transient memory of freshly built child indexes before they
// are offered to the (budget-enforcing) cache.
const refineBatch = 64

// refineTask is one candidate set scheduled onto the per-child (eager)
// refinement path.
type refineTask struct {
	idx    int               // index into the level's set slice
	parent *core.RefinablePC // cached parent to refine from
	attr   int               // the one attribute the candidate adds
	child  *core.RefinablePC // built during the pass when within bound
}

// sibBatch is one batched refinement unit: all same-level candidates that
// extend the same gen parent by one attribute. The parent is a lazy
// slot-keyed index — its group ids are the dense mixed-radix keys, so no
// group vector is ever materialized; core.RefineBatch streams the keys
// blockwise and sizes every sibling in one pass.
type sibBatch struct {
	parent *core.RefinablePC
	lo, hi int // half-open range into the level's batchIdx/batchAttrs
}

// sizeResult is a candidate set's sizing verdict.
type sizeResult struct {
	size   int
	within bool
}

// levelSizer is the frontier scheduler of the enumeration phase. Per
// candidate set it chooses the cheapest sizing source, in order:
//
//   - batched sibling refinement, when the candidate is dense-keyable: the
//     level's candidates are grouped by gen parent before dispatch, and
//     one core.RefineBatch pass per (parent, sibling-batch) sizes them all
//     against virtual parent group vectors — no per-set allocation beyond
//     pooled compact-space slabs;
//   - per-child refinement of a cached parent PC (the PR 2 path) for
//     candidates beyond the dense tier whose parent index is cached;
//   - the fused raw scan otherwise.
//
// In-bound candidates that will be needed as non-lazy parents are cached
// eagerly (within a memory budget), levels the frontier has moved past are
// evicted into the slab pool, and all scratch cycles through that pool, so
// steady-state sizing allocates a near-constant working set. Every routing
// and caching decision happens in deterministic slice order; results and
// counters are identical for all worker counts.
type levelSizer struct {
	d     *dataset.Dataset
	n     int
	opts  Options
	stats *Stats
	cache *core.PCCache // created on demand; serves the eager tier
	pool  *core.VecPool
	scan  core.ScanStats

	results    []sizeResult
	batches    []sibBatch
	batchIdx   []int // candidate index per batched child
	batchAttrs []int // added attribute per batched child
	batchRadix []int // child key space per batched child (eager-need check)
	specs      []core.BatchSpec
	tasks      []refineTask
	scanSets   []lattice.AttrSet
	scanIdx    []int
}

// newLevelSizer builds the scheduler. Candidates on the batched tier need
// no precomputed parents at all (any dense-keyable set is refinable-from
// lazily), so the cache is seeded only with the singleton refinables that
// non-dense level-2 candidates will look up — and skipped entirely when
// every pair is dense-keyable.
func newLevelSizer(d *dataset.Dataset, opts Options, stats *Stats) *levelSizer {
	z := &levelSizer{d: d, n: d.NumAttrs(), opts: opts, stats: stats}
	// Size the arena to the refinement cache it backs: a level eviction
	// returns up to a full cache budget of slabs at once, and the next
	// level's builds draw them right back out.
	poolBudget := opts.CacheBudget
	if poolBudget <= 0 {
		poolBudget = core.DefaultPCCacheBudget
	}
	z.pool = core.NewVecPool(poolBudget)
	if opts.DisableRefine {
		return z
	}
	// A singleton {a} must be cached eagerly when some pair containing a
	// cannot take the batched tier: its sizing then goes through the
	// per-child path, which looks the singleton up in the cache.
	var eager []int
	for a := 0; a < z.n; a++ {
		need := opts.DisableBatchRefine
		if !need {
			radix, ok := core.DenseKeyable(d, lattice.NewAttrSet(a))
			if !ok {
				need = true
			} else {
				for b := a + 1; b < z.n; b++ {
					if !core.DenseExtendable(d, radix, b) {
						need = true
						break
					}
				}
			}
		}
		if need {
			eager = append(eager, a)
		}
	}
	if len(eager) == 0 {
		return z
	}
	root := core.BuildRefinable(d, lattice.AttrSet(0), z.pool)
	if root == nil {
		return z // dataset too large for group vectors: scan-only eager tier
	}
	z.ensureCache()
	singles := make([]*core.RefinablePC, len(eager))
	workpool.Do(len(eager), opts.Workers, func(i int) {
		singles[i], _, _ = root.Refine(d, eager[i], -1, z.pool)
	})
	for _, r := range singles {
		if !z.cache.Put(r) {
			r.Release(z.pool)
		}
	}
	root.Release(z.pool)
	return z
}

func (z *levelSizer) ensureCache() {
	if z.cache == nil {
		z.cache = core.NewPCCache(z.opts.CacheBudget, z.pool)
	}
}

// sizeLevel sizes one slice of same-level candidate sets, invoking visit
// for each in input order with its in-bound verdict. A fired Options.Ctx
// aborts the level and returns the typed context error; no verdicts are
// visited for a cancelled level.
func (z *levelSizer) sizeLevel(sets []lattice.AttrSet, visit func(s lattice.AttrSet, within bool)) error {
	if len(sets) == 0 {
		return nil
	}
	if cap(z.results) < len(sets) {
		z.results = make([]sizeResult, len(sets))
	}
	z.results = z.results[:len(sets)]
	z.batches = z.batches[:0]
	z.batchIdx = z.batchIdx[:0]
	z.batchAttrs = z.batchAttrs[:0]
	z.batchRadix = z.batchRadix[:0]
	z.tasks = z.tasks[:0]
	z.scanSets = z.scanSets[:0]
	z.scanIdx = z.scanIdx[:0]

	// Route every candidate: batched tier grouped by gen parent (children
	// of one parent are consecutive in both traversals, so grouping is a
	// run-length pass), then cached-parent per-child refinement, then raw
	// scan. All routing is deterministic slice order.
	batchOK := !z.opts.DisableRefine && !z.opts.DisableBatchRefine
	curParent := lattice.AttrSet(0)
	curKnown := false // curLazy (possibly nil) is the verdict for curParent
	var curLazy *core.RefinablePC
	for i, s := range sets {
		if batchOK && !s.IsEmpty() {
			max := s.MaxIndex()
			p := s.Remove(max)
			if !curKnown || p != curParent {
				z.flushBatch()
				curParent, curKnown = p, true
				curLazy, _ = core.LazyRefinable(z.d, p)
			}
			if curLazy != nil && core.DenseExtendable(z.d, curLazy.KeySpace(), max) {
				if len(z.batches) == 0 || z.batches[len(z.batches)-1].parent != curLazy {
					z.batches = append(z.batches, sibBatch{parent: curLazy, lo: len(z.batchIdx)})
				}
				z.batchIdx = append(z.batchIdx, i)
				z.batchAttrs = append(z.batchAttrs, max)
				z.batchRadix = append(z.batchRadix, curLazy.KeySpace()*z.d.Attr(max).DomainSize())
				continue
			}
		}
		var parent *core.RefinablePC
		attr := -1
		if z.cache != nil && !z.opts.DisableRefine {
			for _, a := range s.Members() {
				if p := z.cache.Get(s.Remove(a)); p != nil && (parent == nil || p.Groups() < parent.Groups()) {
					parent, attr = p, a
				}
			}
		}
		if parent != nil {
			z.tasks = append(z.tasks, refineTask{idx: i, parent: parent, attr: attr})
		} else {
			z.scanIdx = append(z.scanIdx, i)
			z.scanSets = append(z.scanSets, s)
		}
	}
	z.flushBatch()

	if err := z.runBatches(sets); err != nil {
		return err
	}
	if err := z.runTasks(sets); err != nil {
		return err
	}

	// Raw-scan path for candidates on neither refinement tier. Spilled
	// candidates (byte-key sets over the memory budget) are routed inside
	// the fused sizing call onto external spill scans.
	co := core.CountOptions{Workers: z.opts.Workers, DenseLimit: z.opts.DenseLimit, Stats: &z.scan, Pool: z.pool, MemBudget: z.opts.MemBudget, SpillDir: z.opts.SpillDir, FS: z.opts.FS, Ctx: z.opts.Ctx}
	for lo := 0; lo < len(z.scanSets); lo += fusedBatch {
		hi := min(lo+fusedBatch, len(z.scanSets))
		sizes, within, err := core.LabelSizesFused(z.d, z.scanSets[lo:hi], z.opts.Bound, co)
		if err != nil {
			return err
		}
		for j := range sizes {
			z.results[z.scanIdx[lo+j]] = sizeResult{sizes[j], within[j]}
		}
	}

	z.stats.RefinedSets += len(z.batchIdx) + len(z.tasks)
	z.stats.ScannedSets += len(z.scanSets)
	z.stats.BatchRefines += len(z.batches)
	z.stats.DenseSets = z.scan.Dense
	z.stats.SpilledSets = int(z.scan.Spilled)
	z.stats.SpilledU64Sets = int(z.scan.SpilledU64)
	z.stats.SpillRuns = int(z.scan.SpillRuns)
	z.stats.SpillParallelRuns = int(z.scan.SpillParallelRuns)
	z.stats.SpillBytes = z.scan.SpillBytes
	z.stats.SpillFallbacks = int(z.scan.SpillFallbacks)
	z.stats.SharedSpillPasses = int(z.scan.SharedSpillPasses)
	z.stats.SpillPassesSaved = int(z.scan.SpillPassesSaved)
	z.stats.PoolHits, z.stats.PoolMisses = z.pool.Stats()
	for i, s := range sets {
		res := z.results[i]
		z.stats.SizeComputed++
		if res.within {
			z.stats.InBound++
		}
		visit(s, res.within)
	}
	// Drop parent references before the buffers are length-reset, so the
	// reused backing arrays cannot pin evicted levels' group vectors.
	for i := range z.tasks {
		z.tasks[i].parent = nil
	}
	for i := range z.batches {
		z.batches[i].parent = nil
	}
	return nil
}

// flushBatch closes the currently open sibling batch, if any.
func (z *levelSizer) flushBatch() {
	if n := len(z.batches); n > 0 && z.batches[n-1].hi == 0 {
		z.batches[n-1].hi = len(z.batchIdx)
	}
}

// runBatches executes the batched tier: one RefineSizeBatch pass per
// (parent, sibling-batch), dispatched across workers — batches run
// concurrently when the level has many, and a lone batch shards its rows
// instead. Afterwards, in-bound candidates whose own children cannot all
// take the batched tier are built eagerly into the cache (sequentially,
// in slice order), so the per-child tier has parents at the next level.
func (z *levelSizer) runBatches(sets []lattice.AttrSet) error {
	nb := len(z.batches)
	if nb == 0 {
		return nil
	}
	eff := workpool.Resolve(z.opts.Workers, 1<<30)
	outer := min(nb, eff)
	inner := 1
	if outer < eff {
		inner = eff / outer
	}
	errs := make([]error, nb)
	workpool.Do(nb, outer, func(bi int) {
		b := &z.batches[bi]
		attrs := z.batchAttrs[b.lo:b.hi]
		co := core.CountOptions{Workers: inner, Pool: z.pool, Ctx: z.opts.Ctx}
		res, err := b.parent.RefineSizeBatch(z.d, attrs, z.opts.Bound, co)
		if err != nil {
			errs[bi] = err
			return
		}
		for k, r := range res {
			z.results[z.batchIdx[b.lo+k]] = sizeResult{r.Size, r.Within}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Boundary builds: a batched in-bound candidate some of whose gen
	// children exceed the dense key space will be needed as a materialized
	// parent next level. Build it from a raw scan within the cache budget.
	for _, b := range z.batches {
		for k := b.lo; k < b.hi; k++ {
			i := z.batchIdx[k]
			s := sets[i]
			if !z.results[i].within || s.Size() >= z.n {
				continue
			}
			radix := z.batchRadix[k]
			need := false
			for a := s.MaxIndex() + 1; a < z.n; a++ {
				if !core.DenseExtendable(z.d, radix, a) {
					need = true
					break
				}
			}
			if !need {
				continue
			}
			z.ensureCache()
			if !z.cache.HasRoom() {
				continue
			}
			// A boundary build is a full raw scan; poll the context between
			// builds so a cancelled search stops growing the cache.
			if err := ctxErr(z.opts.Ctx); err != nil {
				return err
			}
			if child := core.BuildRefinable(z.d, s, z.pool); child != nil && !z.cache.Put(child) {
				child.Release(z.pool)
			}
		}
	}
	return nil
}

// runTasks executes the per-child (eager) tier, chunked so freshly built
// child indexes are offered to the cache's budget check before more are
// built. Each chunk builds only as many children as the cache has bytes of
// room for (a child's group vector costs ~4 bytes per row); the rest of
// the chunk sizes without building, so transient memory stays within the
// budget rather than within refineBatch × child size.
//
// Eviction is level-pipelined: a parent whose last referencing task has
// completed is dropped from the cache right after its chunk — its group
// vector and tables return to the pool before the next chunk's child
// builds allocate — rather than held until endLevel. That roughly halves
// the eager tier's peak (the old scheme held a full level of consumed
// parents alongside the level being built), and the freed budget lets the
// same CacheBudget retain more of the children that are still to be used.
// Every decision that shapes the next level's cache happens in
// deterministic slice order, so results and path counters are reproducible
// for any worker count.
func (z *levelSizer) runTasks(sets []lattice.AttrSet) error {
	if len(z.tasks) == 0 {
		return nil
	}
	lastUse := make(map[*core.RefinablePC]int, len(z.tasks))
	for i := range z.tasks {
		lastUse[z.tasks[i].parent] = i
	}
	childBytes := int64(z.d.NumRows())*4 + 4096
	for lo := 0; lo < len(z.tasks); lo += refineBatch {
		// Per-child refinements are pure in-memory passes; polling the
		// context once per chunk keeps cancellation latency at one chunk
		// of compact-space work without touching the refine hot loop.
		if err := ctxErr(z.opts.Ctx); err != nil {
			return err
		}
		hi := min(lo+refineBatch, len(z.tasks))
		chunk := z.tasks[lo:hi]
		buildAllowance := int(z.cache.Room() / childBytes)
		workpool.Do(len(chunk), z.opts.Workers, func(ti int) {
			t := &chunk[ti]
			s := sets[t.idx]
			if ti < buildAllowance && s.Size() < z.n {
				child, size, within := t.parent.Refine(z.d, t.attr, z.opts.Bound, z.pool)
				t.child = child
				z.results[t.idx] = sizeResult{size, within}
			} else {
				size, within := t.parent.RefineSize(z.d, t.attr, z.opts.Bound, z.pool)
				z.results[t.idx] = sizeResult{size, within}
			}
		})
		for i := range chunk {
			if chunk[i].child != nil {
				if !z.cache.Put(chunk[i].child) {
					chunk[i].child.Release(z.pool)
				}
				chunk[i].child = nil
			}
		}
		for i := lo; i < hi; i++ {
			p := z.tasks[i].parent
			if last, live := lastUse[p]; live && last < hi {
				delete(lastUse, p)
				z.cache.Drop(p.Attrs())
			}
		}
	}
	return nil
}

// endLevel tells the scheduler the whole lattice level has been sized:
// indexes below it can no longer serve as parents and are evicted.
func (z *levelSizer) endLevel(level int) {
	if z.cache != nil {
		z.cache.DropBelow(level)
	}
}

// Naive finds the optimal label by level-wise enumeration (paper §III):
// subsets of size 2, 3, … are generated with their label sizes; every
// in-bound subset's label error is evaluated; enumeration stops at the first
// level where no subset fits the bound (label sizes are monotone, so deeper
// levels cannot fit either). Each level is sized with fused batch scans
// rather than one dataset scan per subset.
func Naive(d *dataset.Dataset, ps *core.PatternSet, opts Options) (*Result, error) {
	if err := checkOptions(d, opts); err != nil {
		return nil, err
	}
	start := time.Now()
	n := d.NumAttrs()
	var stats Stats
	var cands []lattice.AttrSet
	sizer := newLevelSizer(d, opts, &stats)
	var level []lattice.AttrSet // hoisted: reused across levels
	for k := 2; k <= n; k++ {
		// The whole level goes to the sizer in one call (as TopDown's
		// frontier does): sizeLevel batches its raw scans and refinement
		// chunks internally, and the pipelined eviction needs to see every
		// reference to a parent before dropping it — per-256 flushing here
		// would evict parents still needed by the rest of the level.
		level = level[:0]
		lattice.Combinations(n, k, func(s lattice.AttrSet) bool {
			level = append(level, s)
			return true
		})
		levelHit := false
		if err := sizer.sizeLevel(level, func(s lattice.AttrSet, within bool) {
			if within {
				levelHit = true
				cands = append(cands, s)
			}
		}); err != nil {
			return nil, err
		}
		sizer.endLevel(k)
		if !levelHit {
			break
		}
	}
	stats.SearchTime = time.Since(start)
	return finish(d, ps, cands, opts, stats)
}

// TopDown is Algorithm 1: a breadth-first traversal of the label lattice
// through the gen operator. Children of in-bound sets are generated exactly
// once; sets whose label exceeds the bound are pruned together with their
// entire gen-subtree; the candidate list keeps only maximal in-bound sets
// (adding a child evicts its direct parents), since by Proposition 3.2 a
// superset's label is expected to estimate at least as well.
func TopDown(d *dataset.Dataset, ps *core.PatternSet, opts Options) (*Result, error) {
	if err := checkOptions(d, opts); err != nil {
		return nil, err
	}
	start := time.Now()
	list, stats, err := enumerateTopDown(d, opts)
	if err != nil {
		return nil, err
	}
	stats.SearchTime = time.Since(start)
	return finish(d, ps, list, opts, stats)
}

// enumerateTopDown runs Algorithm 1's enumeration phase: the level-wise
// Gen traversal with subtree pruning, sized through the frontier
// scheduler. It returns the maximal in-bound candidate sets (unsorted) and
// the enumeration counters.
func enumerateTopDown(d *dataset.Dataset, opts Options) ([]lattice.AttrSet, Stats, error) {
	n := d.NumAttrs()
	var stats Stats
	sizer := newLevelSizer(d, opts, &stats)
	// The BFS queue is processed one lattice level at a time so the whole
	// frontier's children can be sized in fused batch scans. Gen generates
	// each lattice node exactly once across the traversal (Proposition
	// 3.8), so the concatenated child lists never repeat a set and the
	// level-wise order visits exactly the sets the per-node BFS visited.
	frontier := lattice.AttrSet(0).Gen(n) // the attribute singletons
	level := 1
	cands := make(map[lattice.AttrSet]struct{})
	var children []lattice.AttrSet // hoisted: reused across levels
	for len(frontier) > 0 {
		children = children[:0]
		for _, s := range frontier {
			children = append(children, s.Gen(n)...)
		}
		frontier = frontier[:0]
		level++
		if err := sizer.sizeLevel(children, func(c lattice.AttrSet, within bool) {
			if !within {
				return // prune c's entire gen-subtree
			}
			frontier = append(frontier, c)
			// removeParents(cands, c): keep the candidate list an
			// antichain of maximal in-bound sets.
			for _, p := range c.Parents() {
				delete(cands, p)
			}
			cands[c] = struct{}{}
		}); err != nil {
			return nil, stats, err
		}
		sizer.endLevel(level)
	}
	list := make([]lattice.AttrSet, 0, len(cands))
	for s := range cands {
		list = append(list, s)
	}
	return list, stats, nil
}

// Enumerate runs only the candidate-enumeration phase of the top-down
// search — frontier sizing across every lattice level, no label
// evaluation — and returns the maximal in-bound candidate sets in
// deterministic order with the work counters. Benchmarks and workload
// profiling use it to measure the sizing engine in isolation.
func Enumerate(d *dataset.Dataset, opts Options) ([]lattice.AttrSet, Stats, error) {
	if err := checkOptions(d, opts); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	list, stats, err := enumerateTopDown(d, opts)
	if err != nil {
		return nil, stats, err
	}
	stats.SearchTime = time.Since(start)
	lattice.SortAttrSets(list)
	return list, stats, nil
}

func checkOptions(d *dataset.Dataset, opts Options) error {
	if opts.Bound <= 0 {
		return fmt.Errorf("search: bound must be positive, got %d", opts.Bound)
	}
	if d.NumAttrs() > lattice.MaxAttrs {
		return fmt.Errorf("search: dataset has %d attributes, max %d", d.NumAttrs(), lattice.MaxAttrs)
	}
	return nil
}

// finish evaluates every candidate set and returns the best label. When no
// candidate of size ≥ 2 exists it falls back to in-bound singletons, then to
// the empty set (pure independence estimation).
func finish(d *dataset.Dataset, ps *core.PatternSet, cands []lattice.AttrSet, opts Options, stats Stats) (*Result, error) {
	if len(cands) == 0 {
		for i := 0; i < d.NumAttrs(); i++ {
			s := lattice.NewAttrSet(i)
			stats.SizeComputed++
			if _, within := core.LabelSize(d, s, opts.Bound); within {
				stats.InBound++
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			cands = append(cands, lattice.AttrSet(0))
		}
	}
	lattice.SortAttrSets(cands)
	if opts.FastEval {
		ps.SortByCountDesc()
	}

	evalStart := time.Now()

	type scored struct {
		idx     int
		attrs   lattice.AttrSet
		label   *core.Label
		maxErr  float64
		scanned int
		exact   bool // false when branch-and-bound cut the scan short
	}
	results := make([]scored, len(cands))

	var best struct {
		sync.Mutex
		err float64
		ok  bool
	}
	cutoff := func() float64 {
		if !opts.BranchAndBound {
			return 0
		}
		best.Lock()
		defer best.Unlock()
		if !best.ok {
			return 0
		}
		return best.err
	}
	offer := func(e float64) {
		best.Lock()
		if !best.ok || e < best.err {
			best.err, best.ok = e, true
		}
		best.Unlock()
	}

	// Each candidate's label build runs single-threaded when candidates
	// themselves are scored concurrently; a lone candidate gets the whole
	// engine instead.
	co := core.CountOptions{Workers: 1, DenseLimit: opts.DenseLimit, MemBudget: opts.MemBudget, SpillDir: opts.SpillDir, FS: opts.FS, Ctx: opts.Ctx}
	if len(cands) == 1 {
		co.Workers = opts.Workers
	}
	var failMu sync.Mutex
	var failErr error
	fail := func(err error) {
		failMu.Lock()
		if failErr == nil {
			failErr = err
		}
		failMu.Unlock()
	}
	workpool.DoCtx(opts.Ctx, len(cands), opts.Workers, func(i int) {
		s := cands[i]
		l, err := core.BuildLabelOptsCtx(opts.Ctx, d, s, co)
		if err != nil {
			fail(err)
			return
		}
		mo := core.MaxErrOptions{
			Sorted:    opts.FastEval,
			StopAbove: cutoff(),
			Workers:   1,
		}
		maxErr, scanned := core.MaxAbsError(l, ps, mo)
		exact := mo.StopAbove <= 0 || maxErr <= mo.StopAbove
		if exact {
			offer(maxErr)
		}
		results[i] = scored{i, s, l, maxErr, scanned, exact}
	})
	if failErr == nil {
		failErr = ctxErr(opts.Ctx)
	}
	if failErr != nil {
		// A cancelled evaluation keeps nothing: labels already built may
		// hold merge-on-read spill runs on disk — release them before
		// surfacing the typed error so no temp files outlive the search.
		for i := range results {
			if results[i].label != nil {
				results[i].label.ReleaseSpill()
			}
		}
		return nil, failErr
	}

	bestIdx := -1
	for i, r := range results {
		stats.Evaluated++
		stats.PatternsScanned += int64(r.scanned)
		if !r.exact {
			continue // provably worse than the best exact candidate
		}
		if bestIdx < 0 || r.maxErr < results[bestIdx].maxErr {
			bestIdx = i
		}
	}
	if bestIdx < 0 { // all cut off: re-evaluate the first exactly
		results[0].label.ReleaseSpill() // replaced below
		l, err := core.BuildLabelOptsCtx(opts.Ctx, d, cands[0], co)
		if err != nil {
			for i := 1; i < len(results); i++ {
				results[i].label.ReleaseSpill()
			}
			return nil, err
		}
		maxErr, scanned := core.MaxAbsError(l, ps, core.MaxErrOptions{Sorted: opts.FastEval, Workers: 1})
		results[0] = scored{0, cands[0], l, maxErr, scanned, true}
		stats.PatternsScanned += int64(scanned)
		bestIdx = 0
	}
	// Only the winning label survives; under a memory budget the losers may
	// hold merge-on-read spill runs on disk — drop those eagerly instead of
	// waiting for the GC.
	for i := range results {
		if i != bestIdx {
			results[i].label.ReleaseSpill()
		}
	}
	stats.EvalTime = time.Since(evalStart)

	r := results[bestIdx]
	return &Result{
		Attrs:  r.attrs,
		Label:  r.label,
		MaxErr: r.maxErr,
		Size:   r.label.Size(),
		Stats:  stats,
	}, nil
}

// EvaluateSets scores an explicit list of attribute sets and returns them
// ordered as given, with their label sizes and max errors. Fig 10 (optimal
// label vs drop-one sub-labels) is produced from this helper.
func EvaluateSets(d *dataset.Dataset, ps *core.PatternSet, sets []lattice.AttrSet, opts Options) []Result {
	if opts.FastEval {
		ps.SortByCountDesc()
	}
	out := make([]Result, len(sets))
	co := core.CountOptions{Workers: opts.Workers, DenseLimit: opts.DenseLimit, MemBudget: opts.MemBudget, SpillDir: opts.SpillDir, FS: opts.FS}
	for i, s := range sets {
		l, _ := core.BuildLabelOptsCtx(nil, d, s, co) // co arms no Ctx, so the build cannot fail
		maxErr, scanned := core.MaxAbsError(l, ps, core.MaxErrOptions{Sorted: opts.FastEval, Workers: opts.Workers})
		out[i] = Result{
			Attrs:  s,
			Label:  l,
			MaxErr: maxErr,
			Size:   l.Size(),
			Stats:  Stats{Evaluated: 1, PatternsScanned: int64(scanned)},
		}
	}
	return out
}

// SortSets sorts attribute sets deterministically (by size then value); it
// re-exports the lattice helper for callers assembling Fig 10 style reports.
func SortSets(sets []lattice.AttrSet) { lattice.SortAttrSets(sets) }
