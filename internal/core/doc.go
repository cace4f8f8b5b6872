// Package core implements the primary contribution of "Patterns Count-Based
// Labels for Datasets" (Moskovitch & Jagadish, ICDE 2021): patterns over
// categorical attributes (§II-A), pattern-count based labels consisting of a
// value-count section VC and a pattern-count section PC (§II-B, Definition
// 2.9), the count-estimation function Est(p, l) (Definition 2.11), and the
// absolute and q-error metrics used to score a label against a pattern set
// (Definition 2.13 and §II-B "Error metric").
//
// The package also provides the counting machinery the label model and the
// search algorithms (package search) are built on: mixed-radix and byte-level
// group-by keys, pattern-count indexes (PC), label-size computation with
// early abort, distinct-tuple enumeration (the evaluation pattern set P_A of
// §IV-A), and parallel label evaluation with the paper's sorted
// early-termination optimization (§IV-C).
//
// Dataset scans go through the sharded counting engine (parallel.go): the
// row range is split into contiguous per-worker chunks (CountOptions
// bounds the worker count), each worker fills private state with the
// shared read-only Keyer, and the shards are merged — BuildPCParallel is
// the drop-in parallel form of BuildPC. LabelSizesFused evaluates the
// label sizes of a whole frontier of candidate attribute sets in one
// blocked pass over the rows with per-set cap abort; it is the scan behind
// package search's enumeration phase, and sizing one set is a one-set
// frontier. The sequential BuildPC and LabelSize stay as the oracles the
// differential suites compare against.
//
// API forms: each operation has exactly one exported entry point, and it
// reports failure and cancellation as an error. Reads on a built PC or
// Label take ctx as their first parameter (LookupValsCtx, EachCtx,
// MarginalizeCtx, CountCtx, EstimateCtx, MarginalPCCtx); engine calls that
// take CountOptions read it from CountOptions.Ctx only (BuildPCParallel,
// LabelSizesFused, RefineSizeBatch). A nil ctx never cancels.
// Pooled slabs come from a *VecPool parameter or CountOptions.Pool, where
// nil means plain allocation. No …E twin and no panicking wrapper is
// added beside an entry point; the exceptions are Label.Count, Estimate
// and EstimateRow (the documented convenience forms, and EstimateRow is
// the Estimator interface), Portable and Render, which panic on an
// unrecoverable spilled read, plus Label.CountE and BuildLabelOptsCtx,
// which keep their signatures for the pipeline benchmark.
//
// Group-by counting picks one of three kernels per attribute set,
// deterministically from the key space and the row count (dense.go):
//
//   - dense: when the mixed-radix product is at most DefaultDenseLimit
//     (2^22 slots) and not vastly sparser than the scan (at most 16× the
//     row count), counts go into a flat []int32 indexed by key — shard
//     merge is vector addition, cap-abort is a nonzero-slot counter, and
//     per-worker memory is the key space itself. CountOptions.DenseLimit
//     overrides the threshold (negative disables the kernel).
//   - map: larger key spaces that still fit in uint64 count into hash
//     maps. Both uint64 kernels are fed by columnar key vectors
//     (Keyer.KeyBlock decodes a row block one member column at a time).
//   - bytes: key spaces overflowing uint64 fall back to byte-string keys
//     with the original per-row loop.
//   - uint64 spill: map-kernel sets (uint64 keys beyond the dense tier)
//     whose estimated map footprint exceeds CountOptions.MemBudget run the
//     external group-by with fixed-width 8-byte records — the common
//     over-budget case once domains multiply; count maps stay
//     map[uint64]int, no per-key string materialization. The dense kernel
//     is exempt: its flat state is bounded by the dense slot limit.
//   - byte spill: byte-key sets over the budget — the unbounded-domain,
//     out-of-core case — spill 2-bytes-per-member records.
//   - spill partition: every spill scan partitions its sets in ONE
//     blocked dataset pass (sharedSpillPartition over spill.MultiWriter):
//     each set's keys are computed per cache-resident row block and routed
//     into that set's own run files, with the flush buffers drawing on
//     half the budget split over the scan workers. A frontier's spilled
//     sets share one pass; a lone spilled set and a budgeted build are the
//     same pass with one target. Counting is then per set, as below.
//
// Both spill formats share the machinery (spillcount.go over
// internal/spill): keys hash-partition into K on-disk runs sized so one
// run's map fits each counting worker's share of the budget, the
// key-disjoint runs are counted K-way in parallel with a shared atomic
// distinct total (exact cap-abort across workers), and counts merge with
// the exact cap-abort of label sizing (per-run counts are final and the
// distinct total is a monotone sum). Fused frontier scans exclude spilled
// sets and size them afterwards, in frontier order, off the frontier's
// one partition pass (ScanStats.SharedSpillPasses/SpillPassesSaved meter
// the scans saved by passes serving two or more sets). Disk trouble
// during a spill scan degrades per set, never per pass: the affected set
// re-counts in memory with the caller's full options (budget cleared),
// siblings keep their on-disk results.
// Budgeted builds are bounded end to end: a result map that models over
// the budget is not materialized — the PC retains its runs and serves
// Size/LookupValsCtx/EachCtx merge-on-read (spilledpc.go), streaming runs
// through a pinned hot-run cache; ReleaseSpill (or, as a safety net, the
// GC) removes the runs. No budget means the tier is off.
//
// The merge-on-read read path is built for concurrent readers (the label
// serving daemon of internal/serve): there is no per-lookup mutex. Pinned
// hot runs live in an immutable map snapshot swapped in by copy-on-write
// through an atomic pointer, so steady-state lookups are lock-free map
// probes; a per-run load lock serializes only the first fault of each run
// (concurrent readers of *different* cold runs load in parallel); a small
// admission lock guards the hot-cache cost accounting and the single
// floating (unpinned) slot, and is never held across I/O; and a liveness
// RWMutex arbitrates the release/lookup race — readers hold the read side
// across the released-check plus file scan, release takes the write side,
// and a lookup racing a completed ReleaseSpill fails with the documented
// "use of a released spilled PC" panic rather than undefined behaviour.
// No lock is held across user callbacks (EachCtx/MarginalizeCtx), so callbacks
// may re-enter the same PC. The locking model is spelled out on spilledPC
// (spilledpc.go) and hammered by the race-matrix tests in
// spilledpc_concurrent_test.go.
//
// Orthogonally, pccache.go and refinebatch.go reuse work across lattice
// levels. A RefinablePC retains the row→group assignment of its group-by,
// so the label size of S ∪ {a} follows from a two-column pass — parent
// groups joined with a's column — counted in the compact (group, value)
// space, which is bounded by |P_S| × dom(a) rather than by the full
// mixed-radix product. RefineSizeBatch is the one refinement kernel: one
// pass over a parent's group assignment sizes an entire batch of sibling
// children S ∪ {a₁}, …, S ∪ {aₖ} at once, scattering into k pooled
// compact-space accumulators with per-child exact cap-abort and worker
// sharding. It reads parents in two forms:
//
//   - lazy (LazyRefinable): when a set is dense-keyable its group ids can
//     be DEFINED as the dense mixed-radix keys, so the row→group vector is
//     virtual — recomputed blockwise through Keyer.KeyBlock — and the
//     parent costs no scan and no memory;
//   - materialized (BuildRefinable): sets beyond the dense tier keep a
//     per-row group vector, built by one raw scan and held in a
//     budget-bounded PCCache for the next level.
//
// Package search's frontier scheduler routes every candidate to a lazy
// gen parent, else to its cached parent with the fewest groups, else to
// raw fused scans, and sizes each same-parent group in one batch.
//
// Refinement never spills: its compact (group, value) spaces are bounded
// by an in-bound parent's group count times one attribute domain, so it
// is in-memory by construction — the budget governs only raw scans.
//
// Allocation is arena-managed: a VecPool recycles group vectors, count
// slabs, key scratch and spill buffers across refinements, fused scans
// and sharded builds (CountOptions.Pool); PCCache releases evicted
// indexes into it, and MemBytes counts slab capacities so cache budgets
// bound pinned bytes. Eviction happens at one point per lattice level:
// once the level is sized, the frontier scheduler drops the previous
// level's parents (PCCache.DropBelow), so their group vectors return to
// the pool before the next level's parents are built from it.
// Steady-state enumeration allocates a near-constant working set (pinned
// by alloc_test.go) instead of one rows×4B vector per cached set.
//
// Every parallel, dense, refinement and batch entry point returns results
// bit-identical to its sequential counterpart for all worker counts
// (differentially tested in parallel_test.go, dense_test.go,
// pccache_test.go and refinebatch_test.go).
package core
