package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// Parent-PC reuse across lattice levels. A child set's group-by refines its
// parent's: every child group is a (parent group, added-attribute value)
// pair. A RefinablePC therefore retains, next to the per-group counts, the
// row→group assignment that produced them; refining by one attribute then
// costs a two-column pass — the group vector and the added attribute's
// column — counted in the compact (group, value) space of at most
// groups × domain slots, instead of a full re-key of every member
// attribute against a key space the size of the whole mixed-radix product.
// Package search schedules frontier sizing through these refinements,
// holding the previous level's RefinablePCs in a bounded-memory PCCache
// and falling back to raw fused scans when a parent is missing.
//
// Refinement is exact: the child's distinct-group count equals LabelSize
// of the child set, and materializing the child PC yields bit-identical
// contents to BuildPC (differentially tested in pccache_test.go). NULL
// semantics carry over — rows NULL in any parent attribute are already
// excluded from the group vector, and rows NULL in the added attribute are
// excluded during the refinement pass.

// RefinablePC is a pattern-count index that remembers which group every
// row belongs to, making one-attribute refinements cheap. Build one with
// BuildRefinable, derive one from a parent with Refine or RefineBatch, or
// construct a lazy one with LazyRefinable.
//
// Group ids live in [0, gspace). A refinement with a small compact space
// keeps slot ids as group ids without renumbering (gspace > gcount, dead
// slots have count 0), fusing the child build into the counting pass; a
// large compact space is renumbered densely (gspace == gcount). Consumers
// must treat counts[g] == 0 as "no such group".
//
// A slot-keyed index (slotKeys set) is one whose group ids coincide with
// the dense mixed-radix keys of its attribute set: gspace equals the
// keyer's radix and group g holds exactly the rows whose key is g. Such an
// index needs no materialized group vector — the per-row group assignment
// is recomputable blockwise through Keyer.KeyBlock — so a lazy slot-keyed
// index carries nil groups (and nil groupVals; group values decode from
// the key). RefineBatch both consumes lazy parents, streaming their keys
// instead of reading a vector, and produces lazy children: refining a
// slot-keyed parent by an attribute above its maximum member index yields
// slot ids that are again exactly the child's dense keys.
type RefinablePC struct {
	attrs     lattice.AttrSet
	members   []int    // ascending attribute indices
	rows      int      // dataset rows the group vector covers
	groups    []int32  // per-row group id; nil for lazy slot-keyed indexes
	gcount    int      // number of live groups = PC size; -1 when unknown
	gspace    int      // group id space; len(counts) == gspace
	groupVals []uint16 // gspace × len(members): each group's value ids; nil when slot-keyed
	counts    []int32  // per-group row count; 0 = dead slot; nil for uncounted lazy indexes
	slotKeys  bool     // group ids are exactly the dense mixed-radix keys
}

// uncompactedGroupSpace is the largest compact child space a refinement
// keeps in slot form instead of renumbering: below it the child index is
// built inside the counting pass itself (no second pass over the rows),
// and the wasted dead-slot storage is at most a few hundred KiB.
const uncompactedGroupSpace = 1 << 16

// BuildRefinable groups dataset d by attribute set s, retaining the
// row→group assignment. Group ids follow first appearance in row order.
// It returns nil when the dataset is too large for the int32 group vector
// (callers fall back to plain BuildPC). The group vector and its dense
// scratch come from pool (nil means plain allocation); the returned index
// owns its pooled slabs until Release.
func BuildRefinable(d *dataset.Dataset, s lattice.AttrSet, pool *VecPool) *RefinablePC {
	rows := d.NumRows()
	if rows > math.MaxInt32 {
		return nil
	}
	k := NewKeyer(d, s)
	cols := datasetCols(d)
	r := &RefinablePC{
		attrs:   s,
		members: k.members,
		rows:    rows,
		groups:  pool.Int32(rows, false),
	}
	addGroup := func(vals []uint16) int32 {
		gid := int32(r.gcount)
		r.gcount++
		r.gspace++
		for _, a := range r.members {
			r.groupVals = append(r.groupVals, vals[a])
		}
		r.counts = append(r.counts, 0)
		return gid
	}
	vals := make([]uint16, d.NumAttrs())
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
					k.Decode(key, vals)
					gid = addGroup(vals)
					gidOf[key] = gid
				}
				r.groups[lo+i] = gid
				r.counts[gid]++
			}
		}
		pool.PutInt32(gidOf)
		pool.PutUint64(keys)
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
					k.Decode(key, vals)
					gid = addGroup(vals)
					gidOf[key] = gid
				}
				r.groups[lo+i] = gid
				r.counts[gid]++
			}
		}
		pool.PutUint64(keys)
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
			k.DecodeBytes(string(b), vals)
			gid = addGroup(vals)
			gidOf[string(b)] = gid
		}
		r.groups[row] = gid
		r.counts[gid]++
	}
	return r
}

// LazyRefinable constructs a slot-keyed refinable index over s without
// scanning the dataset: group ids are defined to be the dense mixed-radix
// keys, so the per-row assignment is recomputable on demand and no memory
// beyond the keyer metadata is held. The index carries no counts and an
// unknown group count (Groups reports -1); its sole use is as a parent for
// RefineBatch, which streams the keys blockwise. ok is false when the set
// is not dense-keyable under the engine's default limits (key space
// overflowing uint64, exceeding DefaultDenseLimit, or vastly sparser than
// the row count) — exactly the sets BuildPC would not count densely.
func LazyRefinable(d *dataset.Dataset, s lattice.AttrSet) (r *RefinablePC, ok bool) {
	k := NewKeyer(d, s)
	radix, ok := denseRadix(k, d.NumRows(), DefaultDenseLimit)
	if !ok {
		return nil, false
	}
	return &RefinablePC{
		attrs:    s,
		members:  k.members,
		rows:     d.NumRows(),
		gcount:   -1,
		gspace:   radix,
		slotKeys: true,
	}, true
}

// DenseKeyable reports whether attribute set s would be counted by the
// dense kernel under the engine defaults, and the flat key-space size when
// so. The frontier scheduler uses it to route candidates onto the batched
// slot-keyed refinement tier (any dense-keyable set can serve as a lazy
// parent).
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

// KeySpace returns the group id space of the index. For a slot-keyed
// index this is the dense mixed-radix key space of its attribute set.
func (r *RefinablePC) KeySpace() int { return r.gspace }

// Groups returns the number of groups, which equals the label size |P_S|,
// or -1 for a lazy index constructed without counting (LazyRefinable).
func (r *RefinablePC) Groups() int { return r.gcount }

// MemBytes estimates the retained memory of the index; PCCache budgets
// against it. The per-row group vector dominates. Slab capacities are
// counted rather than lengths, so pooled slabs with slack capacity are
// accounted at what they actually pin.
func (r *RefinablePC) MemBytes() int64 {
	return int64(cap(r.groups))*4 + int64(cap(r.groupVals))*2 + int64(cap(r.counts))*4 + 96
}

// Release returns the index's slabs to the pool and clears them; the
// index must not be used afterwards. PCCache calls it on eviction so a
// bounded working set of group vectors cycles through the pool instead of
// being reallocated per cached set.
func (r *RefinablePC) Release(pool *VecPool) {
	pool.PutInt32(r.groups)
	pool.PutInt32(r.counts)
	pool.PutUint16(r.groupVals)
	r.groups, r.counts, r.groupVals = nil, nil, nil
}

// RefineSize returns LabelSize(d, S ∪ {a}, cap) computed from the group
// vector: the number of distinct (group, value-of-a) pairs, with exactly
// the sequential cap-abort contract. The attribute must not be a member.
// The compact-space scratch slab comes from pool (nil means plain
// allocation) and goes back before the call completes.
func (r *RefinablePC) RefineSize(d *dataset.Dataset, a, cap int, pool *VecPool) (size int, within bool) {
	_, size, within = r.refine(d, a, cap, false, pool)
	return size, within
}

// Refine returns the index over S ∪ {a} together with its size, computed
// from the group vector without re-keying the member attributes. When
// cap >= 0 and the child's size exceeds it, refinement aborts with
// (nil, cap+1, false) — the caller only learns the bound was breached,
// exactly as LabelSize reports. The attribute must not be a member. The
// child's group vector, count slab and the pass's scratch come from pool
// (nil means plain allocation); the returned child owns its pooled slabs
// until Release.
func (r *RefinablePC) Refine(d *dataset.Dataset, a, cap int, pool *VecPool) (child *RefinablePC, size int, within bool) {
	return r.refine(d, a, cap, true, pool)
}

// refine is the shared refinement pass. The compact child key space is
// parent-group × added-attribute-value; it is counted densely when small
// (the common case: it is bounded by |P_parent| × dom(a), not by the full
// mixed-radix product) and through a hash map otherwise.
func (r *RefinablePC) refine(d *dataset.Dataset, a, cap int, build bool, pool *VecPool) (child *RefinablePC, size int, within bool) {
	if r.attrs.Has(a) {
		panic(fmt.Sprintf("core: refine by attribute %d already in %v", a, r.attrs))
	}
	if r.groups == nil {
		// Lazy slot-keyed parent: route through the batch kernel, which
		// streams the parent keys instead of reading a group vector. When a
		// materialized child is requested but the kernel cannot produce one
		// (non-dense compact space, or the added attribute breaks the
		// slot-key chain), fall back to a raw build — same result.
		// The options arm no Ctx, so the batch pass cannot fail.
		res, _ := r.RefineBatch(d, []BatchSpec{{Attr: a, Build: build}}, cap, CountOptions{Workers: 1, Pool: pool})
		out := res[0]
		if build && out.Within && out.Child == nil {
			out.Child = BuildRefinable(d, r.attrs.Add(a), pool)
		}
		return out.Child, out.Size, out.Within
	}
	col := d.Col(a)
	dim := d.Attr(a).DomainSize()
	childAttrs := r.attrs.Add(a)
	if dim == 0 || r.gcount == 0 {
		// Every row is NULL in a (or no parent group exists): the child
		// index is empty, which is always within any cap.
		if !build {
			return nil, 0, true
		}
		return r.emptyChild(childAttrs, a, pool), 0, true
	}

	c := r.gspace * dim
	dense := denseSpaceOK(uint64(c), r.rows, DefaultDenseLimit)

	m := len(r.members)
	pos := sort.SearchInts(r.members, a) // insertion index of a

	// Fused fast path: with a small compact space the child is built
	// inside the counting pass itself — child group ids stay in slot form
	// (parent-group × dim + value), so no renumbering pass over the rows
	// is needed and sizing-plus-build costs one two-column scan.
	if build && dense && c <= uncompactedGroupSpace {
		denseCounts := pool.Int32(c, true)
		childGroups := pool.Int32(r.rows, false)
		distinct := 0
		for row, g := range r.groups {
			if g < 0 {
				childGroups[row] = -1
				continue
			}
			id := col[row]
			if id == dataset.Null {
				childGroups[row] = -1
				continue
			}
			slot := int32(g)*int32(dim) + int32(id) - 1
			if denseCounts[slot] == 0 {
				distinct++
				if cap >= 0 && distinct > cap {
					pool.PutInt32(denseCounts)
					pool.PutInt32(childGroups)
					return nil, cap + 1, false
				}
			}
			denseCounts[slot]++
			childGroups[row] = slot
		}
		ch := &RefinablePC{
			attrs:     childAttrs,
			members:   insertInt(r.members, pos, a),
			rows:      r.rows,
			groups:    childGroups,
			gcount:    distinct,
			gspace:    c,
			groupVals: pool.Uint16(c*(m+1), true),
			counts:    denseCounts,
		}
		for slot, cnt := range denseCounts {
			if cnt == 0 {
				continue
			}
			g := slot / dim
			id := uint16(slot%dim) + 1
			base := r.groupVals[g*m : (g+1)*m]
			dst := ch.groupVals[slot*(m+1) : (slot+1)*(m+1)]
			copy(dst, base[:pos])
			dst[pos] = id
			copy(dst[pos+1:], base[pos:])
		}
		return ch, distinct, true
	}

	var denseCounts []int32
	var mapCounts map[uint64]int32
	distinct := 0
	if dense {
		denseCounts = pool.Int32(c, true)
		for row, g := range r.groups {
			if g < 0 {
				continue
			}
			id := col[row]
			if id == dataset.Null {
				continue
			}
			slot := int(g)*dim + int(id) - 1
			if denseCounts[slot] == 0 {
				distinct++
				if cap >= 0 && distinct > cap {
					pool.PutInt32(denseCounts)
					return nil, cap + 1, false
				}
			}
			denseCounts[slot]++
		}
	} else {
		mapCounts = make(map[uint64]int32)
		for row, g := range r.groups {
			if g < 0 {
				continue
			}
			id := col[row]
			if id == dataset.Null {
				continue
			}
			slot := uint64(g)*uint64(dim) + uint64(id) - 1
			if mapCounts[slot] == 0 {
				distinct++
				if cap >= 0 && distinct > cap {
					return nil, cap + 1, false
				}
			}
			mapCounts[slot]++
		}
	}
	if !build {
		pool.PutInt32(denseCounts)
		return nil, distinct, true
	}

	// Materialize the child with renumbering: compact slots become group
	// ids in ascending slot order (deterministic for both
	// representations), the group value table extends the parent's rows
	// with the added attribute's value, and a second two-column pass
	// assigns every row its child group.
	ch := &RefinablePC{
		attrs:     childAttrs,
		members:   insertInt(r.members, pos, a),
		rows:      r.rows,
		groups:    pool.Int32(r.rows, false),
		gcount:    distinct,
		gspace:    distinct,
		groupVals: make([]uint16, 0, distinct*(m+1)),
		counts:    make([]int32, 0, distinct),
	}
	emit := func(slot uint64, cnt int32) {
		g := int(slot) / dim
		id := uint16(int(slot)%dim) + 1
		base := r.groupVals[g*m : (g+1)*m]
		ch.groupVals = append(ch.groupVals, base[:pos]...)
		ch.groupVals = append(ch.groupVals, id)
		ch.groupVals = append(ch.groupVals, base[pos:]...)
		ch.counts = append(ch.counts, cnt)
	}
	if dense {
		gidOf := pool.Int32(c, false)
		next := int32(0)
		for slot, cnt := range denseCounts {
			if cnt == 0 {
				gidOf[slot] = -1
				continue
			}
			gidOf[slot] = next
			next++
			emit(uint64(slot), cnt)
		}
		for row, g := range r.groups {
			if g < 0 {
				ch.groups[row] = -1
				continue
			}
			id := col[row]
			if id == dataset.Null {
				ch.groups[row] = -1
				continue
			}
			ch.groups[row] = gidOf[int(g)*dim+int(id)-1]
		}
		pool.PutInt32(gidOf)
		pool.PutInt32(denseCounts)
		return ch, distinct, true
	}
	slots := make([]uint64, 0, len(mapCounts))
	for slot := range mapCounts {
		slots = append(slots, slot)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	gidOf := make(map[uint64]int32, len(slots))
	for gi, slot := range slots {
		gidOf[slot] = int32(gi)
		emit(slot, mapCounts[slot])
	}
	for row, g := range r.groups {
		if g < 0 {
			ch.groups[row] = -1
			continue
		}
		id := col[row]
		if id == dataset.Null {
			ch.groups[row] = -1
			continue
		}
		ch.groups[row] = gidOf[uint64(g)*uint64(dim)+uint64(id)-1]
	}
	return ch, distinct, true
}

// emptyChild builds the zero-group child produced when the added attribute
// has an empty active domain or the parent has no groups.
func (r *RefinablePC) emptyChild(childAttrs lattice.AttrSet, a int, pool *VecPool) *RefinablePC {
	pos := sort.SearchInts(r.members, a)
	ch := &RefinablePC{
		attrs:   childAttrs,
		members: insertInt(r.members, pos, a),
		rows:    r.rows,
		groups:  pool.Int32(r.rows, false),
	}
	for i := range ch.groups {
		ch.groups[i] = -1
	}
	return ch
}

// insertInt returns a new slice with v inserted at index pos.
func insertInt(s []int, pos, v int) []int {
	out := make([]int, 0, len(s)+1)
	out = append(out, s[:pos]...)
	out = append(out, v)
	out = append(out, s[pos:]...)
	return out
}

// PC materializes the canonical pattern-count index, choosing the same
// storage representation BuildPC would pick for this attribute set, so the
// result is bit-identical to a raw group-by of the dataset.
func (r *RefinablePC) PC(d *dataset.Dataset) *PC {
	k := NewKeyer(d, r.attrs)
	if r.slotKeys {
		if r.counts == nil {
			// Metadata-only lazy index (LazyRefinable): nothing was counted.
			return BuildPC(d, r.attrs)
		}
		// Group ids are the dense keys, so the count slab is already the
		// key-addressed index; copy it (the slab may be pooled) or spill it
		// into the map representation BuildPC would pick.
		pc := &PC{keyer: k}
		if radix, ok := denseRadix(k, d.NumRows(), DefaultDenseLimit); ok {
			dz := make([]int32, radix)
			copy(dz, r.counts) // counts may be shorter when the added attribute had an empty domain
			pc.dz, pc.distinct = dz, r.gcount
			return pc
		}
		u := make(map[uint64]int, r.gcount)
		for slot, cnt := range r.counts {
			if cnt != 0 {
				u[uint64(slot)] = int(cnt)
			}
		}
		pc.u = u
		return pc
	}
	pc := &PC{keyer: k}
	m := len(r.members)
	vals := make([]uint16, d.NumAttrs())
	group := func(g int) {
		for j, a := range r.members {
			vals[a] = r.groupVals[g*m+j]
		}
	}
	if radix, ok := denseRadix(k, d.NumRows(), DefaultDenseLimit); ok {
		dz := make([]int32, radix)
		for g := 0; g < r.gspace; g++ {
			if r.counts[g] == 0 {
				continue
			}
			group(g)
			key, _ := k.KeyVals(vals)
			dz[key] = r.counts[g]
		}
		pc.dz, pc.distinct = dz, r.gcount
		return pc
	}
	if k.Fits() {
		u := make(map[uint64]int, r.gcount)
		for g := 0; g < r.gspace; g++ {
			if r.counts[g] == 0 {
				continue
			}
			group(g)
			key, _ := k.KeyVals(vals)
			u[key] = int(r.counts[g])
		}
		pc.u = u
		return pc
	}
	s := make(map[string]int, r.gcount)
	var buf []byte
	for g := 0; g < r.gspace; g++ {
		if r.counts[g] == 0 {
			continue
		}
		group(g)
		b, _ := k.AppendBytesVals(buf[:0], vals)
		buf = b
		s[string(b)] = int(r.counts[g])
	}
	pc.s = s
	return pc
}

// RefineFrom computes the pattern-count index of child — which must extend
// the parent's attribute set by exactly one attribute — from the parent's
// groups instead of a raw dataset scan: a two-column refinement pass
// followed by canonical materialization, bit-identical to BuildPC(d,
// child). ok is false (and the caller should fall back to a raw scan)
// when child is not a one-attribute extension of the parent.
func RefineFrom(d *dataset.Dataset, parent *RefinablePC, child lattice.AttrSet) (pc *PC, ok bool) {
	if parent == nil {
		return nil, false
	}
	added := child.Diff(parent.attrs)
	if !parent.attrs.SubsetOf(child) || added.Size() != 1 {
		return nil, false
	}
	ch, _, _ := parent.Refine(d, added.MinIndex(), -1, nil)
	return ch.PC(d), true
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

// Room returns the bytes left before the budget; schedulers divide it by
// the per-index cost to bound how many indexes are worth building ahead
// of the admission check.
func (c *PCCache) Room() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.used >= c.budget {
		return 0
	}
	return c.budget - c.used
}

// Drop evicts the index cached for s, if any, releasing its slabs into the
// pool. It is the single-set form of DropBelow: the frontier scheduler
// calls it the moment a level's last refinement against a parent has run,
// so the parent's group vector returns to the pool before the next sibling
// batch allocates instead of at the end of the level.
func (c *PCCache) Drop(s lattice.AttrSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.m[s]; r != nil {
		c.used -= r.MemBytes()
		delete(c.m, s)
		r.Release(c.pool)
	}
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
