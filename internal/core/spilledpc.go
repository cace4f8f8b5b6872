package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pcbl/internal/spill"
)

// spilledPC is the merge-on-read PC representation: a pattern-count index
// whose merged map modeled over CountOptions.MemBudget, so instead of
// materializing it the index retains its on-disk spill runs and serves the
// PC consumer surface (Size / LookupValsCtx / EachCtx) by streaming them.
// Size is precomputed during the build's count pass; EachCtx streams one
// run's map at a time; LookupValsCtx routes a key to the single run that
// can hold it
// (the same hash partition every occurrence took) and consults that run's
// map.
//
// Reads are budget-bounded: a pinned hot-run cache admits run maps while
// their modeled footprint fits the budget, and one floating slot holds the
// most recently loaded run beyond it, so peak read memory is roughly the
// budget plus one run map (~2x MemBudget worst case) — never the whole
// distinct-key space.
//
// Locking model (a label is built once and consulted by many concurrent
// readers, so the read path must not serialize):
//
//   - The hot cache is an immutable snapshot behind an atomic pointer,
//     republished copy-on-write when a run is pinned. Run maps are never
//     mutated after load, so lookups that hit a pinned run take no lock at
//     all — the read-mostly fast path.
//   - A per-run load mutex serializes loading any one run, so concurrent
//     misses on the same run perform one file scan, while misses on
//     different runs load in parallel.
//   - A small admission mutex guards the floating slot and the hot-cost
//     accounting — the only remaining shared-write section, held for a few
//     pointer updates, never across I/O.
//   - A liveness RWMutex makes release atomic with run reads: loads hold
//     the read side across the released-check and the file scan, release
//     takes the write side before deleting the run files. A lookup racing
//     ReleaseSpill therefore either completes or fails with the documented
//     "use of a released spilled PC" panic — never a raw file-read error.
//
// Run reads can fail — an I/O error, or a checksum mismatch on a corrupted
// frame — and a failed read must never become a wrong count: the internal
// read paths return errors (lookupVals / each), with one bounded retry
// per load so a transient fault recovers invisibly. Every failed attempt
// and every retry is metered (SpillReadStats, and ScanStats when one is
// attached).
//
// No lock is held while user callbacks run: EachCtx fetches each run's
// map and then iterates it lock-free, so the callback may freely probe the
// same PC.
//
// The on-disk runs live until ReleaseSpill is called; a GC cleanup is
// attached as a safety net so an unreferenced spilled PC still removes its
// private temp directory. Using a released spilled PC panics.
type spilledPC struct {
	w        *spill.Writer
	keyer    *Keyer
	u64      bool // uint64 record format (vs byte-string)
	size     int  // total distinct patterns, exact
	runSizes []int
	entry    int64 // modeled bytes per cached map entry
	budget   int64 // pinned hot-run cache budget

	liveMu   sync.RWMutex // read side: run-file access; write side: release
	released atomic.Bool
	cleanup  runtime.Cleanup

	stats spillReadStats
	// scanStats, when non-nil, is the build's shared ScanStats: read
	// errors and retries are mirrored into its atomic Spill* counters.
	scanStats *ScanStats

	ru *runStore[uint64]
	rs *runStore[string]
}

// spillReadStats counts read-path events on a spilled PC; the atomic
// counters are safe to bump from the lock-free fast path.
type spillReadStats struct {
	hotHits    atomic.Int64
	floatHits  atomic.Int64
	runLoads   atomic.Int64
	readErrors atomic.Int64
	retries    atomic.Int64
}

// SpillReadStats is a point-in-time snapshot of a spilled PC's read-path
// counters: lock-free pinned-run hits, floating-slot hits, run-file loads
// (each load is one full scan of a run file), failed read attempts, and
// bounded retries of failed attempts. A ReadErrors count equal to Retries
// means every failure recovered on retry; ReadErrors beyond that surfaced
// to callers as errors.
type SpillReadStats struct {
	HotHits      int64
	FloatingHits int64
	RunLoads     int64
	ReadErrors   int64
	Retries      int64
}

// runStore caches one spilled PC's per-run count maps for one key type.
// Maps are immutable once published; see the locking model on spilledPC.
type runStore[K comparable] struct {
	sp  *spilledPC
	dec func(rec []byte) K

	hot atomic.Pointer[map[int]map[K]int] // immutable snapshot, copy-on-write

	loadMu []sync.Mutex // per run: serializes loading that run

	admit   sync.Mutex // guards hotCost, curRun, cur; never held across I/O
	hotCost int64      // modeled bytes pinned in the hot cache
	curRun  int        // floating slot: most recent non-pinned run (-1 = none)
	cur     map[K]int
}

func newRunStore[K comparable](sp *spilledPC, dec func(rec []byte) K) *runStore[K] {
	rs := &runStore[K]{
		sp:     sp,
		dec:    dec,
		loadMu: make([]sync.Mutex, len(sp.runSizes)),
		curRun: -1,
	}
	empty := make(map[int]map[K]int)
	rs.hot.Store(&empty)
	return rs
}

// get returns run's count map, loading (and possibly pinning) it on a
// miss. The returned map is immutable and remains valid even after the
// floating slot moves on — callers may iterate it without any lock. A
// failed (and once-retried) run read returns an error; nothing is cached,
// so a later call retries the load from scratch. ctx (nil for unarmed
// callers) bounds the load's file scan; cache hits never consult it.
func (rs *runStore[K]) get(ctx context.Context, run int) (map[K]int, error) {
	if m, ok := (*rs.hot.Load())[run]; ok {
		rs.sp.stats.hotHits.Add(1)
		return m, nil
	}
	rs.loadMu[run].Lock()
	defer rs.loadMu[run].Unlock()
	// Re-check under the run's load lock: a concurrent miss on the same
	// run may have pinned it while we waited.
	if m, ok := (*rs.hot.Load())[run]; ok {
		rs.sp.stats.hotHits.Add(1)
		return m, nil
	}
	rs.admit.Lock()
	if run == rs.curRun {
		m := rs.cur
		rs.admit.Unlock()
		rs.sp.stats.floatHits.Add(1)
		return m, nil
	}
	rs.admit.Unlock()
	// A miss means disk IO: an already-fired context stops here, before
	// the load, not one polling stride into it — so small runs (under the
	// polling stride) still honor cancellation.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	m, err := rs.load(ctx, run)
	if err != nil {
		return nil, err
	}
	rs.place(run, m)
	return m, nil
}

// load scans run's file into a fresh map, retrying once on failure. The
// liveness read-lock is held across the released-check and the scans, so a
// concurrent release cannot delete the files mid-read: a lookup racing
// ReleaseSpill either completes or panics with the documented message.
//
// A read error here must never become a wrong count: the partial map is
// discarded and the error propagates. One bounded retry absorbs transient
// faults (a device-level hiccup recovers; a checksum mismatch on corrupt
// data fails again deterministically). Both the failures and the retry are
// metered. A cancelled scan is neither retried nor metered as a read
// error: the disk did nothing wrong, the caller just left.
func (rs *runStore[K]) load(ctx context.Context, run int) (map[K]int, error) {
	sp := rs.sp
	sp.liveMu.RLock()
	defer sp.liveMu.RUnlock()
	sp.checkLive()
	m, err := rs.scan(ctx, run)
	if err != nil {
		if isCtxErr(err) {
			return nil, err
		}
		sp.noteReadError()
		sp.noteRetry()
		m, err = rs.scan(ctx, run)
		if err != nil {
			if isCtxErr(err) {
				return nil, err
			}
			sp.noteReadError()
			return nil, fmt.Errorf("core: spilled PC run read failed: %w", err)
		}
	}
	sp.stats.runLoads.Add(1)
	return m, nil
}

// spillReadCheckRecs is the cancellation stride of a run-file scan: an
// armed context is polled once per this many records, so an abandoned
// spilled read stops mid-run while the per-record cost of the check stays
// in the noise. Unarmed (nil-ctx) scans skip the polling entirely.
const spillReadCheckRecs = 1024

// scan is one attempt at streaming run's records into a fresh map.
func (rs *runStore[K]) scan(ctx context.Context, run int) (map[K]int, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	sp := rs.sp
	m := make(map[K]int, sp.runSizes[run])
	recs := 0
	canceled := false
	if err := sp.w.ScanRun(run, func(rec []byte) bool {
		if done != nil {
			if recs++; recs%spillReadCheckRecs == 0 {
				select {
				case <-done:
					canceled = true
					return false
				default:
				}
			}
		}
		m[rs.dec(rec)]++
		return true
	}); err != nil {
		return nil, err
	}
	if canceled {
		return nil, ctx.Err()
	}
	return m, nil
}

// place admits a freshly loaded run map: pinned into the hot snapshot when
// the modeled cost fits the budget, otherwise into the floating slot.
// Callers hold loadMu[run], so no other goroutine is placing the same run.
func (rs *runStore[K]) place(run int, m map[K]int) {
	cost := int64(len(m)) * rs.sp.entry
	rs.admit.Lock()
	defer rs.admit.Unlock()
	if rs.hotCost+cost <= rs.sp.budget {
		old := *rs.hot.Load()
		next := make(map[int]map[K]int, len(old)+1)
		for r, rm := range old {
			next[r] = rm
		}
		next[run] = m
		rs.hot.Store(&next)
		rs.hotCost += cost
	} else {
		rs.curRun, rs.cur = run, m
	}
}

// drop empties the store during release.
func (rs *runStore[K]) drop() {
	empty := make(map[int]map[K]int)
	rs.hot.Store(&empty)
	rs.admit.Lock()
	rs.curRun, rs.cur, rs.hotCost = -1, nil, 0
	rs.admit.Unlock()
}

func newSpilledPC(w *spill.Writer, k *Keyer, format spillFormat, size int, runSizes []int, budget int64, scanStats *ScanStats) *spilledPC {
	sp := &spilledPC{
		w:         w,
		keyer:     k,
		u64:       format == spillFmtU64,
		size:      size,
		runSizes:  runSizes,
		entry:     format.entryBytes(k),
		budget:    budget,
		scanStats: scanStats,
	}
	if sp.u64 {
		sp.ru = newRunStore(sp, func(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) })
	} else {
		sp.rs = newRunStore(sp, func(rec []byte) string { return string(rec) })
	}
	// Safety net: when the PC is dropped without ReleaseSpill, the GC
	// still removes the run files. The argument is the writer (not sp), so
	// the cleanup does not keep sp reachable.
	sp.cleanup = runtime.AddCleanup(sp, func(w *spill.Writer) { w.Cleanup() }, w)
	return sp
}

// release frees the on-disk runs and the cached maps. Idempotent. The
// liveness write-lock excludes every in-flight run read, so the files are
// only deleted once no reader is inside a scan.
func (sp *spilledPC) release() {
	sp.liveMu.Lock()
	defer sp.liveMu.Unlock()
	if sp.released.Swap(true) {
		return
	}
	sp.cleanup.Stop()
	sp.w.Cleanup()
	if sp.ru != nil {
		sp.ru.drop()
	}
	if sp.rs != nil {
		sp.rs.drop()
	}
}

// detach retires this spilled view without touching the run files: the GC
// cleanup is stopped and the cached maps dropped, but the writer — and the
// on-disk runs it manages — passes to a successor index built over the same
// (possibly appended-to) directory. Incremental merge uses it when the
// merged PC stays spilled: the old view must stop serving (its size and run
// sizes are stale) yet must not delete runs the new view is about to serve.
// Idempotent; using the detached view afterwards panics like a released one.
func (sp *spilledPC) detach() {
	sp.liveMu.Lock()
	defer sp.liveMu.Unlock()
	if sp.released.Swap(true) {
		return
	}
	sp.cleanup.Stop()
	if sp.ru != nil {
		sp.ru.drop()
	}
	if sp.rs != nil {
		sp.rs.drop()
	}
}

func (sp *spilledPC) checkLive() {
	if sp.released.Load() {
		panic("core: use of a released spilled PC")
	}
}

// noteReadError meters one failed run-read attempt, mirroring into the
// build's shared ScanStats when one is attached.
func (sp *spilledPC) noteReadError() {
	sp.stats.readErrors.Add(1)
	if sp.scanStats != nil {
		atomic.AddInt64(&sp.scanStats.SpillReadErrors, 1)
	}
}

// noteRetry meters one bounded retry of a failed run read.
func (sp *spilledPC) noteRetry() {
	sp.stats.retries.Add(1)
	if sp.scanStats != nil {
		atomic.AddInt64(&sp.scanStats.SpillRetries, 1)
	}
}

// readStats snapshots the read-path counters.
func (sp *spilledPC) readStats() SpillReadStats {
	return SpillReadStats{
		HotHits:      sp.stats.hotHits.Load(),
		FloatingHits: sp.stats.floatHits.Load(),
		RunLoads:     sp.stats.runLoads.Load(),
		ReadErrors:   sp.stats.readErrors.Load(),
		Retries:      sp.stats.retries.Load(),
	}
}

// lookupVals implements PC.LookupValsCtx for the spilled representation.
// Safe for any number of concurrent callers; hits on pinned runs are
// lock-free. A failed run read returns an error, never a wrong count. ctx
// (nil when unarmed) cancels a miss's run-file load; a fired context
// surfaces as the typed context error.
func (sp *spilledPC) lookupVals(ctx context.Context, vals []uint16) (int, error) {
	if sp.u64 {
		key, ok := sp.keyer.KeyVals(vals)
		if !ok {
			return 0, nil
		}
		m, err := sp.ru.get(ctx, sp.w.RunOfU64(key))
		if err != nil {
			return 0, err
		}
		return m[key], nil
	}
	var buf [128]byte
	b, ok := sp.keyer.AppendBytesVals(buf[:0], vals)
	if !ok {
		return 0, nil
	}
	m, err := sp.rs.get(ctx, sp.w.RunOf(b))
	if err != nil {
		return 0, err
	}
	return m[string(b)], nil
}

// each implements PC.EachCtx for the spilled representation: runs stream
// one at a time, pinned runs straight from the cache and the rest through
// freshly loaded maps that pass through the floating slot, so live
// iteration memory stays one non-pinned run map. No lock is held while fn
// runs — the run maps are immutable once fetched — so fn may re-enter this
// PC (LookupValsCtx, EachCtx, MarginalizeCtx) freely. A failed run read aborts the
// iteration with the error; fn has then seen a prefix of the entries. ctx
// (nil when unarmed) is consulted at run boundaries and inside each run's
// file scan, so abandoning a long streaming iteration stops promptly.
func (sp *spilledPC) each(ctx context.Context, n int, fn func(vals []uint16, count int) bool) error {
	sp.checkLive()
	vals := make([]uint16, n)
	if sp.u64 {
		for run := range sp.runSizes {
			if sp.runSizes[run] == 0 {
				continue
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			m, err := sp.ru.get(ctx, run)
			if err != nil {
				return err
			}
			for key, c := range m {
				sp.keyer.Decode(key, vals)
				if !fn(vals, c) {
					return nil
				}
			}
		}
		return nil
	}
	for run := range sp.runSizes {
		if sp.runSizes[run] == 0 {
			continue
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m, err := sp.rs.get(ctx, run)
		if err != nil {
			return err
		}
		for key, c := range m {
			sp.keyer.DecodeBytes(key, vals)
			if !fn(vals, c) {
				return nil
			}
		}
	}
	return nil
}
