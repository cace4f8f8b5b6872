package core

import (
	"math"
	"sync"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// Parent-PC reuse across lattice levels. A child set's group-by refines its
// parent's: every child group is a (parent group, added-attribute value)
// pair. A RefinablePC therefore retains the row→group assignment of its
// group-by; sizing S ∪ {a} then costs a two-column pass — the group vector
// and the added attribute's column — counted in the compact (group, value)
// space of at most groups × domain slots, instead of a full re-key of every
// member attribute against a key space the size of the whole mixed-radix
// product. RefineSizeBatch (refinebatch.go) is the one refinement kernel.
// Package search schedules frontier sizing through it, holding the
// previous level's materialized RefinablePCs in a bounded-memory PCCache
// and falling back to raw fused scans when a parent is missing.
//
// Refinement is exact: a child's distinct-group count equals LabelSize of
// the child set (differentially tested in pccache_test.go and
// refinebatch_test.go). NULL semantics carry over — rows NULL in any
// parent attribute are already excluded from the group vector, and rows
// NULL in the added attribute are excluded during the refinement pass.

// RefinablePC is a pattern-count index reduced to what refinement reads:
// which group every row belongs to. Build a materialized one with
// BuildRefinable, or construct a lazy one with LazyRefinable.
//
// A materialized index holds the per-row group vector; group ids follow
// first appearance in row order and live in [0, gcount). A lazy index is
// slot-keyed: its group ids are defined to be the dense mixed-radix keys
// of its attribute set, so gspace equals the keyer's radix and the per-row
// assignment is recomputable blockwise through Keyer.KeyBlock. It holds
// no group vector and an unknown group count; RefineSizeBatch streams its
// keys instead of reading a vector.
type RefinablePC struct {
	attrs  lattice.AttrSet
	rows   int     // dataset rows the group vector covers
	groups []int32 // per-row group id, -1 for rows NULL in a member; nil when lazy
	gcount int     // number of groups = PC size; -1 for a lazy index
	gspace int     // group id space: gcount, or the dense radix when lazy
}

// BuildRefinable groups dataset d by attribute set s, retaining the
// row→group assignment. Group ids follow first appearance in row order.
// It returns nil when the dataset is too large for the int32 group vector
// (callers fall back to raw scans). The group vector and its dense
// scratch come from pool (nil means plain allocation); the returned index
// owns its pooled group vector until Release.
func BuildRefinable(d *dataset.Dataset, s lattice.AttrSet, pool *VecPool) *RefinablePC {
	rows := d.NumRows()
	if rows > math.MaxInt32 {
		return nil
	}
	k := NewKeyer(d, s)
	cols := datasetCols(d)
	r := &RefinablePC{
		attrs:  s,
		rows:   rows,
		groups: pool.Int32(rows, false),
	}
	if radix, ok := denseRadix(k, rows, DefaultDenseLimit); ok {
		gidOf := pool.Int32(radix, false)
		for i := range gidOf {
			gidOf[i] = -1
		}
		keys := pool.Uint64(keyBlockRows, false)
		for lo := 0; lo < rows; lo += keyBlockRows {
			hi := min(lo+keyBlockRows, rows)
			k.KeyBlock(cols, lo, hi, keys)
			for i, key := range keys[:hi-lo] {
				if key == InvalidKey {
					r.groups[lo+i] = -1
					continue
				}
				gid := gidOf[key]
				if gid < 0 {
					gid = int32(r.gcount)
					r.gcount++
					gidOf[key] = gid
				}
				r.groups[lo+i] = gid
			}
		}
		pool.PutInt32(gidOf)
		pool.PutUint64(keys)
		r.gspace = r.gcount
		return r
	}
	if k.Fits() {
		gidOf := make(map[uint64]int32)
		keys := pool.Uint64(keyBlockRows, false)
		for lo := 0; lo < rows; lo += keyBlockRows {
			hi := min(lo+keyBlockRows, rows)
			k.KeyBlock(cols, lo, hi, keys)
			for i, key := range keys[:hi-lo] {
				if key == InvalidKey {
					r.groups[lo+i] = -1
					continue
				}
				gid, seen := gidOf[key]
				if !seen {
					gid = int32(len(gidOf))
					gidOf[key] = gid
				}
				r.groups[lo+i] = gid
			}
		}
		pool.PutUint64(keys)
		r.gcount, r.gspace = len(gidOf), len(gidOf)
		return r
	}
	gidOf := make(map[string]int32)
	var buf []byte
	for row := 0; row < rows; row++ {
		b, ok := k.AppendBytesRow(buf[:0], cols, row)
		buf = b
		if !ok {
			r.groups[row] = -1
			continue
		}
		gid, seen := gidOf[string(b)]
		if !seen {
			gid = int32(len(gidOf))
			gidOf[string(b)] = gid
		}
		r.groups[row] = gid
	}
	r.gcount, r.gspace = len(gidOf), len(gidOf)
	return r
}

// LazyRefinable constructs a slot-keyed refinable index over s without
// scanning the dataset: group ids are defined to be the dense mixed-radix
// keys, so the per-row assignment is recomputable on demand and no memory
// beyond the keyer metadata is held. The index has an unknown group count
// (Groups reports -1); its sole use is as a parent for RefineSizeBatch,
// which streams the keys blockwise. ok is false when the set is not
// dense-keyable under the engine's default limits (key space overflowing
// uint64, exceeding DefaultDenseLimit, or vastly sparser than the row
// count) — exactly the sets BuildPC would not count densely.
func LazyRefinable(d *dataset.Dataset, s lattice.AttrSet) (r *RefinablePC, ok bool) {
	radix, ok := DenseKeyable(d, s)
	if !ok {
		return nil, false
	}
	return &RefinablePC{attrs: s, rows: d.NumRows(), gcount: -1, gspace: radix}, true
}

// DenseKeyable reports whether attribute set s would be counted by the
// dense kernel under the engine defaults, and the flat key-space size when
// so. Any dense-keyable set can serve as a lazy refinement parent.
func DenseKeyable(d *dataset.Dataset, s lattice.AttrSet) (radix int, ok bool) {
	return denseRadix(NewKeyer(d, s), d.NumRows(), DefaultDenseLimit)
}

// DenseExtendable reports whether extending a dense-keyable set with key
// space radix by attribute a stays dense-keyable under the engine
// defaults: the grown key space must respect both the slot limit and the
// sparsity guard relative to the row count.
func DenseExtendable(d *dataset.Dataset, radix, a int) bool {
	dim := d.Attr(a).DomainSize()
	if dim == 0 {
		dim = 1 // matches the keyer's substitution for all-NULL attributes
	}
	return denseSpaceOK(uint64(radix)*uint64(dim), d.NumRows(), DefaultDenseLimit)
}

// Attrs returns the attribute set S the index covers.
func (r *RefinablePC) Attrs() lattice.AttrSet { return r.attrs }

// KeySpace returns the group id space of the index. For a lazy index this
// is the dense mixed-radix key space of its attribute set.
func (r *RefinablePC) KeySpace() int { return r.gspace }

// Groups returns the number of groups, which equals the label size |P_S|,
// or -1 for a lazy index (LazyRefinable).
func (r *RefinablePC) Groups() int { return r.gcount }

// MemBytes estimates the retained memory of the index; PCCache budgets
// against it. The per-row group vector dominates. Its capacity is counted
// rather than its length, so a pooled slab with slack capacity is
// accounted at what it actually pins.
func (r *RefinablePC) MemBytes() int64 {
	return int64(cap(r.groups))*4 + 96
}

// Release returns the index's group vector to the pool and clears it; the
// index must not be used afterwards. PCCache calls it on eviction so a
// bounded working set of group vectors cycles through the pool instead of
// being reallocated per cached set.
func (r *RefinablePC) Release(pool *VecPool) {
	pool.PutInt32(r.groups)
	r.groups = nil
}

// DefaultPCCacheBudget bounds the total retained memory of a PCCache when
// the caller does not choose one: 256 MiB of group vectors and group
// tables.
const DefaultPCCacheBudget int64 = 256 << 20

// PCCache is a bounded-memory store of RefinablePCs keyed by attribute
// set. The label search retains one lattice level of parents at a time:
// Put admits indexes while the budget lasts, Get serves refinement
// lookups, and DropBelow evicts levels the frontier has moved past —
// releasing evicted indexes' slabs into the attached pool, so the cache's
// working set cycles through a bounded arena. Budget accounting uses
// MemBytes, which counts slab capacities, so CacheBudget bounds the bytes
// the cache actually pins. All methods are safe for concurrent use.
type PCCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	pool   *VecPool // may be nil: evictions are left to the GC
	m      map[lattice.AttrSet]*RefinablePC
}

// NewPCCache returns a cache bounded to roughly budget bytes of retained
// indexes; budget <= 0 means DefaultPCCacheBudget. Evicted indexes release
// their slabs into pool (which may be nil).
func NewPCCache(budget int64, pool *VecPool) *PCCache {
	if budget <= 0 {
		budget = DefaultPCCacheBudget
	}
	return &PCCache{budget: budget, pool: pool, m: make(map[lattice.AttrSet]*RefinablePC)}
}

// Get returns the cached index for s, or nil.
func (c *PCCache) Get(s lattice.AttrSet) *RefinablePC {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[s]
}

// Put stores r unless doing so would exceed the budget; it reports whether
// the index was (or already is) retained.
func (c *PCCache) Put(r *RefinablePC) bool {
	if r == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[r.attrs]; dup {
		return true
	}
	mem := r.MemBytes()
	if c.used+mem > c.budget {
		return false
	}
	c.m[r.attrs] = r
	c.used += mem
	return true
}

// HasRoom reports whether the cache is below budget; schedulers consult it
// before building an index they may not be able to retain.
func (c *PCCache) HasRoom() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used < c.budget
}

// DropBelow evicts every index whose attribute set has fewer than level
// members — the parents of levels the search has finished sizing. Evicted
// indexes are released into the cache's pool and must no longer be
// referenced by callers.
func (c *PCCache) DropBelow(level int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s, r := range c.m {
		if s.Size() < level {
			c.used -= r.MemBytes()
			delete(c.m, s)
			r.Release(c.pool)
		}
	}
}

// Len returns the number of retained indexes.
func (c *PCCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Used returns the estimated retained bytes.
func (c *PCCache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
