package core

import (
	"fmt"
	"sync/atomic"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// Batched sibling refinement, the engine's one refinement kernel: one pass
// over a parent's group assignment sizes the whole batch of sibling
// children S ∪ {a₁}, …, S ∪ {aₖ}. The kernel reads each parent group id
// once per row block — streamed through Keyer.KeyBlock for lazy slot-keyed
// parents, converted from the group vector for materialized ones — and
// scatters into k per-child accumulators: a dense []int32 slab when the
// compact (group, value) space is small, a hash set otherwise. Each child
// keeps the exact sequential cap-abort contract of LabelSize, and row
// chunks shard across workers exactly like the fused frontier scan, so
// refinement scales with CountOptions.Workers. Lazy parents are what let
// the frontier scheduler size a dense-keyable lattice in near-constant
// allocation: their group vectors exist only virtually, recomputed
// blockwise when the parent is consumed.

// BatchResult is one sibling child's outcome: exactly what LabelSize(d,
// S ∪ {a}, cap) reports.
type BatchResult struct {
	Size   int
	Within bool
}

// batchPlan is the per-child static plan of one batched refinement.
type batchPlan struct {
	col    []uint16
	mult   uint64 // slot = pg + (id-1)*mult; mult = parent gspace
	cspace uint64 // compact child space: gspace × dom(attr)
	dense  bool   // dense slab accumulator vs hash set
}

// batchAcc is one worker's accumulator for one child.
type batchAcc struct {
	slab     []int32             // dense path
	seen     map[uint64]struct{} // sparse path
	distinct int
	done     bool // cap exceeded in this worker's rows
}

// RefineSizeBatch computes LabelSize(d, S ∪ {a}, cap) for every attribute
// a in attrs in a single blocked pass over the parent's group assignment,
// with per-child exact cap-abort, sharded across opts.Workers; result i
// matches the sequential LabelSize of S ∪ {attrs[i]} for every worker
// count. attrs must name distinct non-member attributes. Accumulator slabs
// come from opts.Pool and go back before the call returns. With
// CountOptions.Ctx armed, every worker polls the context once per row
// block; a fired context aborts the pass, returns every pooled slab, and
// surfaces the typed context error with nil results.
func (r *RefinablePC) RefineSizeBatch(d *dataset.Dataset, attrs []int, cap int, opts CountOptions) ([]BatchResult, error) {
	results := make([]BatchResult, len(attrs))
	if len(attrs) == 0 {
		return results, nil
	}
	pool := opts.Pool
	rows := r.rows
	limit := opts.denseLimit()

	var dup lattice.AttrSet
	plans := make([]batchPlan, len(attrs))
	for j, a := range attrs {
		if r.attrs.Has(a) {
			panic(fmt.Sprintf("core: batch refine by attribute %d already in %v", a, r.attrs))
		}
		if dup.Has(a) {
			panic(fmt.Sprintf("core: duplicate attribute %d in batch refine of %v", a, r.attrs))
		}
		dup = dup.Add(a)
		cspace := uint64(r.gspace) * uint64(d.Attr(a).DomainSize())
		plans[j] = batchPlan{
			col:    d.Col(a),
			mult:   uint64(r.gspace),
			cspace: cspace,
			dense:  denseSpaceOK(cspace, rows, limit),
		}
	}

	var keyer *Keyer
	var cols [][]uint16
	if r.gcount < 0 { // lazy: stream the dense keys instead of a vector
		keyer = NewKeyer(d, r.attrs)
		cols = datasetCols(d)
	}

	stop := opts.stop()
	workers := opts.scanWorkers(rows)
	if workers <= 1 {
		accs := newBatchAccs(plans, pool)
		r.batchScan(plans, accs, keyer, cols, 0, rows, cap, nil, pool, stop)
		if err := stop.err(); err != nil {
			releaseBatchAccs([][]batchAcc{accs}, pool)
			return nil, err
		}
		for j := range plans {
			if accs[j].done {
				results[j] = BatchResult{Size: cap + 1}
			} else {
				results[j] = BatchResult{Size: accs[j].distinct, Within: true}
			}
			pool.PutInt32(accs[j].slab)
		}
		return results, nil
	}

	// Sharded pass: exceeded[j] fires when any worker's local distinct
	// count for child j passes cap — a lower bound on the global count —
	// so other workers stop accumulating it. The merge re-derives the
	// exact verdict for the rest.
	exceeded := make([]atomic.Bool, len(attrs))
	shards := make([][]batchAcc, workers)
	workpool.RunChunks(rows, workers, func(w, lo, hi int) {
		accs := newBatchAccs(plans, pool)
		r.batchScan(plans, accs, keyer, cols, lo, hi, cap, exceeded, pool, stop)
		shards[w] = accs
	})
	if err := stop.err(); err != nil {
		releaseBatchAccs(shards, pool)
		return nil, err
	}

	for j := range plans {
		if cap >= 0 && exceeded[j].Load() {
			results[j] = BatchResult{Size: cap + 1}
			for _, accs := range shards {
				pool.PutInt32(accs[j].slab)
				accs[j].slab = nil
			}
			continue
		}
		size, within := mergeBatchShards(shards, j, cap, pool)
		results[j] = BatchResult{Size: size, Within: within}
	}
	return results, nil
}

// releaseBatchAccs returns every pooled slab of a cancelled batch pass;
// the partial counts are discarded unread.
func releaseBatchAccs(shards [][]batchAcc, pool *VecPool) {
	for _, accs := range shards {
		for j := range accs {
			pool.PutInt32(accs[j].slab)
			accs[j].slab = nil
		}
	}
}

// newBatchAccs allocates one worker's accumulators: pooled zeroed slabs
// for dense children, hash sets otherwise.
func newBatchAccs(plans []batchPlan, pool *VecPool) []batchAcc {
	accs := make([]batchAcc, len(plans))
	for j := range plans {
		if plans[j].dense {
			accs[j].slab = pool.Int32(int(plans[j].cspace), true)
		} else {
			accs[j].seen = make(map[uint64]struct{})
		}
	}
	return accs
}

// batchScan is the blocked counting loop over rows [lo, hi): the parent
// group ids of a block are loaded once — keyed through the keyer for lazy
// parents, converted from the group vector otherwise — and every still-
// active child consumes them against its own column. Children that pass
// the cap are swap-removed from the active list (publishing the shared
// exceeded flag in sharded mode) so later blocks skip them. stop is polled
// once per block, next to the exceeded flags; a fired context ends this
// worker's pass with the accumulators partial — the caller discards them.
func (r *RefinablePC) batchScan(plans []batchPlan, accs []batchAcc, keyer *Keyer, cols [][]uint16, lo, hi, cap int, exceeded []atomic.Bool, pool *VecPool, stop ctxStop) {
	active := make([]int, len(plans))
	for i := range active {
		active[i] = i
	}
	pg := pool.Uint64(keyBlockRows, false)
	defer pool.PutUint64(pg)
	for blo := lo; blo < hi && len(active) > 0; blo += keyBlockRows {
		if stop.hit() {
			return
		}
		bhi := min(blo+keyBlockRows, hi)
		if keyer != nil {
			keyer.KeyBlock(cols, blo, bhi, pg)
		} else {
			for i, g := range r.groups[blo:bhi] {
				if g < 0 {
					pg[i] = InvalidKey
				} else {
					pg[i] = uint64(g)
				}
			}
		}
		for ai := 0; ai < len(active); ai++ {
			j := active[ai]
			acc := &accs[j]
			done := false
			if exceeded != nil && cap >= 0 && exceeded[j].Load() {
				done = true
			} else if acc.scanBlock(&plans[j], pg[:bhi-blo], blo, cap) {
				done = true
				acc.done = true
				if exceeded != nil {
					exceeded[j].Store(true)
				}
			}
			if done {
				active[ai] = active[len(active)-1]
				active = active[:len(active)-1]
				ai--
			}
		}
	}
}

// scanBlock feeds one block of parent group ids into a child's accumulator
// and reports whether the child's distinct count passed the cap.
func (acc *batchAcc) scanBlock(pl *batchPlan, pg []uint64, blo, cap int) (done bool) {
	col := pl.col[blo : blo+len(pg)]
	mult := pl.mult
	if slab := acc.slab; slab != nil {
		for i, id := range col {
			if id == dataset.Null || pg[i] == InvalidKey {
				continue
			}
			slot := pg[i] + uint64(id-1)*mult
			if slab[slot] == 0 {
				acc.distinct++
				if cap >= 0 && acc.distinct > cap {
					slab[slot]++
					return true
				}
			}
			slab[slot]++
		}
		return false
	}
	seen := acc.seen
	for i, id := range col {
		if id == dataset.Null || pg[i] == InvalidKey {
			continue
		}
		slot := pg[i] + uint64(id-1)*mult
		if _, dup := seen[slot]; dup {
			continue
		}
		seen[slot] = struct{}{}
		acc.distinct++
		if cap >= 0 && acc.distinct > cap {
			return true
		}
	}
	return false
}

// mergeBatchShards unions the per-worker accumulators for child j —
// vector addition with a nonzero-slot counter on the dense path, set union
// otherwise — aborting at the cap exactly as the sequential pass would.
// Every dense slab goes back to the pool.
func mergeBatchShards(shards [][]batchAcc, j, cap int, pool *VecPool) (size int, within bool) {
	first := &shards[0][j]
	if first.slab != nil {
		merged := first.slab
		first.slab = nil
		defer pool.PutInt32(merged)
		distinct := first.distinct
		within = true
		for _, accs := range shards[1:] {
			shard := accs[j].slab
			accs[j].slab = nil
			if within {
				for slot, c := range shard {
					if c == 0 {
						continue
					}
					if merged[slot] == 0 {
						distinct++
						if cap >= 0 && distinct > cap {
							within = false
							break
						}
					}
					merged[slot] += c
				}
			}
			pool.PutInt32(shard)
		}
		if !within {
			return cap + 1, false
		}
		return distinct, true
	}
	seen := first.seen
	for _, accs := range shards[1:] {
		for slot := range accs[j].seen {
			seen[slot] = struct{}{}
			if cap >= 0 && len(seen) > cap {
				return cap + 1, false
			}
		}
	}
	return len(seen), true
}
