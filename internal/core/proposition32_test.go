package core

import (
	"testing"

	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// TestProposition32 verifies Proposition 3.2 on exhaustive nested label
// pairs over the Figure 2 data: for S1 ⊆ S2 and any full pattern p, whenever
// the estimate of p' = p|Attr(p)∩S2 under L_S1 and the estimate of p under
// L_S2 err in the same direction (both over- or both under-estimates), the
// more detailed label's error on p is no larger.
func TestProposition32(t *testing.T) {
	checkProposition32(t, testutil.Fig2())
}

// TestProposition32Synthetic repeats the check on a correlated synthetic
// dataset large enough to exercise non-trivial estimates.
func TestProposition32Synthetic(t *testing.T) {
	d, err := datagen.BlueNile(2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict to 4 attributes to keep the exhaustive pair scan fast.
	d4, err := d.Prefix(4)
	if err != nil {
		t.Fatal(err)
	}
	checkProposition32(t, d4)
}

func checkProposition32(t *testing.T, d *dataset.Dataset) {
	t.Helper()
	n := d.NumAttrs()
	ps := DistinctTuples(d)
	labels := make(map[lattice.AttrSet]*Label)
	labels[0] = BuildLabel(d, 0)
	lattice.AllSubsets(n, func(s lattice.AttrSet) bool {
		labels[s] = BuildLabel(d, s)
		return true
	})

	// True counts of restricted patterns, served from PC indexes.
	pcCache := make(map[lattice.AttrSet]*PC)
	trueCount := func(s lattice.AttrSet, row []uint16) int {
		if s.IsEmpty() {
			return d.NumRows()
		}
		pc, ok := pcCache[s]
		if !ok {
			pc = BuildPC(d, s)
			pcCache[s] = pc
		}
		return mustLookup(t, pc, row)
	}

	violations := 0
	for s1, l1 := range labels {
		for s2, l2 := range labels {
			if !s1.SubsetOf(s2) || s1 == s2 {
				continue
			}
			for i := 0; i < ps.Len(); i++ {
				attrs := ps.Attrs(i)
				if attrs.SubsetOf(s2) {
					continue // Attr(p) ⊆ S2: estimate exact, out of scope
				}
				row := ps.Row(i)
				pa := attrs.Intersect(s2) // Attr(p')
				cP := ps.Count(i)
				cPrime := trueCount(pa, row)
				estPrime := l1.EstimateRow(row, pa)
				estP := l2.EstimateRow(row, attrs)
				overSame := estPrime > float64(cPrime) && estP > float64(cP)
				underSame := estPrime < float64(cPrime) && estP < float64(cP)
				if !overSame && !underSame {
					continue
				}
				err1 := AbsError(cP, l1.EstimateRow(row, attrs))
				err2 := AbsError(cP, estP)
				if err2 > err1+1e-9 {
					violations++
					if violations <= 3 {
						t.Errorf("Prop 3.2 violated: S1=%v S2=%v pattern %d: err2=%v > err1=%v",
							s1, s2, i, err2, err1)
					}
				}
			}
		}
	}
	if violations > 0 {
		t.Errorf("total violations: %d", violations)
	}
}
