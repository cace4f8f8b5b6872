package core

import (
	"context"
	"sync/atomic"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// PC is a pattern-count index: the set P_S of all patterns over an attribute
// set S with positive count, together with their counts (the PC section of a
// label, Definition 2.9). It is the group-by of the dataset on S.
//
// Four storage representations share the PC interface; the kernel
// selection rules in dense.go pick one deterministically from the key
// space, the row count and the memory budget: a flat dense count array for
// small-domain sets, a uint64 hash map for larger mixed-radix key spaces,
// a byte-string map when the key overflows uint64, and a merge-on-read
// spilled index (spilledpc.go) when a budgeted build's merged map models
// over CountOptions.MemBudget — the counts then stay in the build's
// on-disk runs and stream on demand.
type PC struct {
	keyer    *Keyer
	dz       []int32        // dense path (flat counts indexed by key)
	distinct int            // nonzero slots in dz
	u        map[uint64]int // map path (mixed-radix keys)
	s        map[string]int // fallback (byte-string keys)
	sp       *spilledPC     // merge-on-read path (budgeted out-of-core builds)
}

// BuildPC groups dataset d by attribute set s and returns the pattern-count
// index. Rows with NULL in any attribute of s belong to no pattern over s
// and are skipped. Small-domain sets are counted with the dense kernel
// (see dense.go); BuildPCParallel additionally shards the scan.
func BuildPC(d *dataset.Dataset, s lattice.AttrSet) *PC {
	pc, err := buildPC(d, s, CountOptions{Workers: 1}, 1)
	if err != nil {
		// Unreachable: the options carry no context, so no kernel can fail.
		panic("core: BuildPC: " + err.Error())
	}
	return pc
}

// buildPC routes a group-by to the kernel the selection rules pick. The
// only non-nil error is CountOptions.Ctx firing mid-build (the typed
// context error): disk trouble on the spill tier degrades to the in-memory
// kernels internally and never surfaces here.
func buildPC(d *dataset.Dataset, s lattice.AttrSet, opts CountOptions, workers int) (*PC, error) {
	k := NewKeyer(d, s)
	cols := datasetCols(d)
	rows := d.NumRows()
	if opts.Stats != nil {
		atomic.AddInt64(&opts.Stats.RowsScanned, int64(rows))
	}
	stop := opts.stop()
	var pc *PC
	if radix, ok := denseRadix(k, rows, opts.denseLimit()); ok {
		pc = buildPCDense(k, cols, rows, radix, workers, opts.Pool, stop)
	} else if runs, format, spillOK := opts.spillFor(k, rows, workers); spillOK {
		return buildPCSpill(k, cols, rows, workers, runs, format, opts)
	} else if k.Fits() {
		pc = buildPCMap(k, cols, rows, workers, stop)
	} else {
		pc = buildPCBytes(k, cols, rows, workers, stop)
	}
	// A cancelled kernel stopped mid-scan: its counts are partial, so the
	// PC is discarded and only the typed error escapes.
	if err := stop.err(); err != nil {
		return nil, err
	}
	return pc, nil
}

// Attrs returns the attribute set S the index covers.
func (pc *PC) Attrs() lattice.AttrSet { return pc.keyer.Attrs() }

// Size returns |P_S| — the number of positive-count patterns over S. This is
// the label size the bound B_s of the optimal-label problem constrains.
func (pc *PC) Size() int {
	if pc.sp != nil {
		return pc.sp.size
	}
	if pc.dz != nil {
		return pc.distinct
	}
	if pc.u != nil {
		return len(pc.u)
	}
	return len(pc.s)
}

// Spilled reports whether the index is merge-on-read: its counts live in
// retained on-disk spill runs rather than an in-memory map. Call
// ReleaseSpill when done with such an index to remove the runs eagerly
// (the GC removes them eventually otherwise).
func (pc *PC) Spilled() bool { return pc.sp != nil }

// ReleaseSpill removes the on-disk runs behind a merge-on-read index; it
// is a no-op for in-memory representations and idempotent. Using a
// released spilled index panics.
func (pc *PC) ReleaseSpill() {
	if pc != nil && pc.sp != nil {
		pc.sp.release()
	}
}

// SpillReadStats reports the read-path counters of a merge-on-read index:
// lock-free pinned-run hits, floating-slot hits, and run-file loads. ok is
// false for in-memory representations, which have no read path to meter.
func (pc *PC) SpillReadStats() (stats SpillReadStats, ok bool) {
	if pc == nil || pc.sp == nil {
		return SpillReadStats{}, false
	}
	return pc.sp.readStats(), true
}

// LookupValsCtx returns the count of the pattern whose member values
// appear in the dense identifier slice vals; 0 when the pattern is absent
// (count 0) or any member slot is NULL. An already-fired ctx is refused at
// entry. In-memory representations never fail and, past that check, never
// consult ctx. A merge-on-read index reads run files on demand: a cache
// miss loads a run with ctx bounding that load (polled every
// spillReadCheckRecs records), a fired context returns the typed context
// error, and a read that fails — an I/O error or a checksum mismatch,
// after one bounded retry — returns the error instead of a wrong count. A
// nil ctx never cancels.
func (pc *PC) LookupValsCtx(ctx context.Context, vals []uint16) (int, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if pc.sp != nil {
		return pc.sp.lookupVals(ctx, vals)
	}
	if pc.dz != nil {
		key, ok := pc.keyer.KeyVals(vals)
		if !ok {
			return 0, nil
		}
		return int(pc.dz[key]), nil
	}
	if pc.u != nil {
		key, ok := pc.keyer.KeyVals(vals)
		if !ok {
			return 0, nil
		}
		return pc.u[key], nil
	}
	var buf [128]byte
	b, ok := pc.keyer.AppendBytesVals(buf[:0], vals)
	if !ok {
		return 0, nil
	}
	return pc.s[string(b)], nil
}

// EachCtx invokes fn for every stored pattern, passing a dense identifier
// slice (valid only for the duration of the call) and the pattern's count.
// Iteration stops early when fn returns false. Order is unspecified. An
// already-fired ctx is refused at entry; past that check, in-memory
// representations iterate without consulting ctx. A merge-on-read
// iteration checks ctx at every run boundary and inside each run's file
// scan, so abandoning a long streaming pass stops within one run quantum.
// A fired context or a failed run read aborts the iteration and returns
// the error; fn has then seen a prefix of the entries — discard any
// partial aggregation. A nil ctx never cancels.
func (pc *PC) EachCtx(ctx context.Context, n int, fn func(vals []uint16, count int) bool) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if pc.sp != nil {
		return pc.sp.each(ctx, n, fn)
	}
	vals := make([]uint16, n)
	if pc.dz != nil {
		for key, c := range pc.dz {
			if c == 0 {
				continue
			}
			pc.keyer.Decode(uint64(key), vals)
			if !fn(vals, int(c)) {
				return nil
			}
		}
		return nil
	}
	if pc.u != nil {
		for key, c := range pc.u {
			pc.keyer.Decode(key, vals)
			if !fn(vals, c) {
				return nil
			}
		}
		return nil
	}
	for key, c := range pc.s {
		pc.keyer.DecodeBytes(key, vals)
		if !fn(vals, c) {
			return nil
		}
	}
	return nil
}

// MarginalizeCtx returns the PC over sub ⊆ S computed by summing this
// index's entries — no dataset rescan. Counts of rows that were NULL in
// S \ sub are not recovered (they never entered this index); a Label
// therefore builds marginals from the dataset when NULLs may matter, and
// from the parent PC otherwise. For NULL-free datasets the two agree
// (tested). Summing a merge-on-read index reads run files: ctx is checked
// at run boundaries, and a fired context or a failed read returns the
// error and no index. A nil ctx never cancels.
func (pc *PC) MarginalizeCtx(ctx context.Context, d *dataset.Dataset, sub lattice.AttrSet) (*PC, error) {
	k := NewKeyer(d, sub)
	out := &PC{keyer: k}
	n := d.NumAttrs()
	if radix, ok := denseRadix(k, d.NumRows(), DefaultDenseLimit); ok {
		counts := make([]int32, radix)
		distinct := 0
		if err := pc.EachCtx(ctx, n, func(vals []uint16, c int) bool {
			if key, ok := k.KeyVals(vals); ok {
				if counts[key] == 0 {
					distinct++
				}
				counts[key] += int32(c)
			}
			return true
		}); err != nil {
			return nil, err
		}
		out.dz, out.distinct = counts, distinct
		return out, nil
	}
	if k.Fits() {
		out.u = make(map[uint64]int)
		if err := pc.EachCtx(ctx, n, func(vals []uint16, c int) bool {
			key, ok := k.KeyVals(vals)
			if ok {
				out.u[key] += c
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	out.s = make(map[string]int)
	var buf []byte
	if err := pc.EachCtx(ctx, n, func(vals []uint16, c int) bool {
		b, ok := k.AppendBytesVals(buf[:0], vals)
		buf = b
		if ok {
			out.s[string(b)] += c
		}
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// LabelSize returns |P_S| for attribute set s, the size a label built on s
// would have (paper line 6 of Algorithm 1: labelSize(c, D)). When cap >= 0
// and the distinct count exceeds cap, counting aborts and LabelSize returns
// (cap+1, false): the caller only needs to know the bound was breached.
// Label sizes are monotone in S (refining a grouping can only split groups),
// which is what makes this early abort — and Algorithm 1's subtree pruning —
// sound.
func LabelSize(d *dataset.Dataset, s lattice.AttrSet, cap int) (size int, within bool) {
	k := NewKeyer(d, s)
	cols := datasetCols(d)
	if k.Fits() {
		seen := make(map[uint64]struct{})
		for r := 0; r < d.NumRows(); r++ {
			key, ok := k.KeyRow(cols, r)
			if !ok {
				continue
			}
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				if cap >= 0 && len(seen) > cap {
					return cap + 1, false
				}
			}
		}
		return len(seen), true
	}
	seen := make(map[string]struct{})
	var buf []byte
	for r := 0; r < d.NumRows(); r++ {
		b, ok := k.AppendBytesRow(buf[:0], cols, r)
		buf = b
		if !ok {
			continue
		}
		if _, dup := seen[string(b)]; !dup {
			seen[string(b)] = struct{}{}
			if cap >= 0 && len(seen) > cap {
				return cap + 1, false
			}
		}
	}
	return len(seen), true
}

// datasetCols gathers the raw columns once so hot loops avoid repeated
// method calls.
func datasetCols(d *dataset.Dataset) [][]uint16 {
	cols := make([][]uint16, d.NumAttrs())
	for i := range cols {
		cols[i] = d.Col(i)
	}
	return cols
}
