package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// TestKeyerRoundTrip (property): for random value assignments, encoding then
// decoding through the mixed-radix keyer is the identity.
func TestKeyerRoundTrip(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	cfg := &quick.Config{MaxCount: 500}
	prop := func(mask uint8, seed uint64) bool {
		s := lattice.AttrSet(mask) & lattice.FullSet(n)
		if s.IsEmpty() {
			s = lattice.FullSet(n)
		}
		k := NewKeyer(d, s)
		if !k.Fits() {
			return true
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		vals := make([]uint16, n)
		for _, i := range s.Members() {
			vals[i] = uint16(1 + rng.IntN(d.Attr(i).DomainSize()))
		}
		key, ok := k.KeyVals(vals)
		if !ok {
			return false
		}
		decoded := make([]uint16, n)
		k.Decode(key, decoded)
		for _, i := range s.Members() {
			if decoded[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestKeyerBytesRoundTrip (property): byte-string keys decode to the values
// that produced them.
func TestKeyerBytesRoundTrip(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	prop := func(mask uint8, seed uint64) bool {
		s := lattice.AttrSet(mask) & lattice.FullSet(n)
		if s.IsEmpty() {
			return true
		}
		k := NewKeyer(d, s)
		rng := rand.New(rand.NewPCG(seed, 2))
		vals := make([]uint16, n)
		for _, i := range s.Members() {
			vals[i] = uint16(1 + rng.IntN(d.Attr(i).DomainSize()))
		}
		b, ok := k.AppendBytesVals(nil, vals)
		if !ok {
			return false
		}
		decoded := make([]uint16, n)
		k.DecodeBytes(string(b), decoded)
		for _, i := range s.Members() {
			if decoded[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestKeyerNullRejection: rows with NULL in a member attribute produce no
// key under either encoding.
func TestKeyerNullRejection(t *testing.T) {
	b := dataset.NewBuilder("nulls", "x", "y")
	b.AppendStrings("a", "")
	b.AppendStrings("a", "b")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k := NewKeyer(d, lattice.FullSet(2))
	cols := [][]uint16{d.Col(0), d.Col(1)}
	if _, ok := k.KeyRow(cols, 0); ok {
		t.Error("uint64 key produced for a NULL row")
	}
	if _, ok := k.KeyRow(cols, 1); !ok {
		t.Error("no key for a fully non-NULL row")
	}
	if _, ok := k.AppendBytesRow(nil, cols, 0); ok {
		t.Error("byte key produced for a NULL row")
	}
}

// TestKeyerOverflowFallsBack: a synthetic schema whose domain product
// overflows 63 bits must select the byte-string path, and PC building must
// still work through it.
func TestKeyerOverflowFallsBack(t *testing.T) {
	names := make([]string, 16)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	b := dataset.NewBuilder("wide", names...)
	// Give every attribute 32 values: 32^16 = 2^80 > 2^63.
	rng := rand.New(rand.NewPCG(7, 7))
	row := make([]string, 16)
	for r := 0; r < 500; r++ {
		for i := range row {
			row[i] = string(rune('A' + rng.IntN(32)))
		}
		b.AppendStrings(row...)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	full := lattice.FullSet(16)
	if NewKeyer(d, full).Fits() {
		t.Fatal("keyer unexpectedly fits in uint64")
	}
	pc := BuildPC(d, full)
	total := 0
	mustEach(t, pc, 16, func(vals []uint16, c int) bool {
		total += c
		return true
	})
	if total != 500 {
		t.Errorf("PC total = %d, want 500", total)
	}
	// Lookup agrees with a scan for an arbitrary row.
	p := PatternFromRow(d, 0, full)
	if got, want := mustLookup(t, pc, p.vals), CountPattern(d, p); got != want {
		t.Errorf("fallback lookup = %d, want %d", got, want)
	}
}

// TestPCAgainstScan (property): PC lookups equal full-scan counts for every
// pattern in P_S, and PC sizes match LabelSize.
func TestPCAgainstScan(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	lattice.AllSubsets(n, func(s lattice.AttrSet) bool {
		pc := BuildPC(d, s)
		sz, _ := LabelSize(d, s, -1)
		if pc.Size() != sz {
			t.Errorf("PC size %d != LabelSize %d for %v", pc.Size(), sz, s)
		}
		mustEach(t, pc, n, func(vals []uint16, c int) bool {
			p, err := PatternFromIDs(s, vals)
			if err != nil {
				t.Fatal(err)
			}
			if want := CountPattern(d, p); c != want {
				t.Errorf("PC count %d != scan %d for %s", c, want, p.Format(d))
			}
			return true
		})
		return true
	})
}

// TestMarginalizeMatchesRebuild: marginalizing a PC equals building the PC
// from scratch on a NULL-free dataset.
func TestMarginalizeMatchesRebuild(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	full := lattice.FullSet(n)
	parent := BuildPC(d, full)
	lattice.AllSubsets(n, func(sub lattice.AttrSet) bool {
		marg := mustMarginalize(t, parent, d, sub)
		direct := BuildPC(d, sub)
		if marg.Size() != direct.Size() {
			t.Errorf("marginal size %d != direct %d for %v", marg.Size(), direct.Size(), sub)
		}
		mustEach(t, direct, n, func(vals []uint16, c int) bool {
			if got := mustLookup(t, marg, vals); got != c {
				t.Errorf("marginal count %d != direct %d for %v", got, c, sub)
			}
			return true
		})
		return true
	})
}
