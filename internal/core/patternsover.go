package core

import (
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// PatternsOver builds the workload P_S (Definition 2.9 applied as an
// evaluation set): every pattern with Attr(p) = s and positive count. The
// problem definition (2.15) explicitly allows optimizing a label for such
// restricted workloads — "patterns that include only sensitive attributes" —
// instead of the default P_A. The group-by runs on the sharded counting
// engine under opts; a fired opts.Ctx or a failed run read of a spilled
// index returns the error and no set.
func PatternsOver(d *dataset.Dataset, s lattice.AttrSet, opts CountOptions) (*PatternSet, error) {
	pc, err := BuildPCParallel(d, s, opts)
	if err != nil {
		return nil, err
	}
	defer pc.ReleaseSpill() // transient index: drop merge-on-read runs eagerly
	n := d.NumAttrs()
	ps := &PatternSet{stride: n}
	if err := pc.EachCtx(opts.Ctx, n, func(vals []uint16, c int) bool {
		base := len(ps.flat)
		ps.flat = append(ps.flat, make([]uint16, n)...)
		for _, a := range s.Members() {
			ps.flat[base+a] = vals[a]
		}
		ps.counts = append(ps.counts, c)
		ps.attrs = append(ps.attrs, s)
		return true
	}); err != nil {
		return nil, err
	}
	return ps, nil
}

// CrossProductPatterns builds every value combination over s from the
// active domains — including combinations with count zero. Audits use it to
// ask "which intersections are missing entirely?", which P_S by definition
// cannot reveal (it only contains positive-count patterns).
func CrossProductPatterns(d *dataset.Dataset, s lattice.AttrSet) *PatternSet {
	n := d.NumAttrs()
	members := s.Members()
	ps := &PatternSet{stride: n}
	pc := BuildPC(d, s) // true counts for the non-zero combinations
	vals := make([]uint16, n)
	var rec func(int)
	rec = func(j int) {
		if j == len(members) {
			base := len(ps.flat)
			ps.flat = append(ps.flat, make([]uint16, n)...)
			copy(ps.flat[base:], vals)
			c, _ := pc.LookupValsCtx(nil, vals) // in-memory index: cannot fail
			ps.counts = append(ps.counts, c)
			ps.attrs = append(ps.attrs, s)
			return
		}
		a := members[j]
		for id := uint16(1); int(id) <= d.Attr(a).DomainSize(); id++ {
			vals[a] = id
			rec(j + 1)
		}
		vals[a] = dataset.Null
	}
	rec(0)
	return ps
}
