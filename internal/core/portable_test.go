package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pcbl/internal/datagen"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

func TestPortableRoundTrip(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	l := BuildLabel(d, s)
	data, err := l.Portable().Encode()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := DecodePortableLabel(data)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Size() != 3 || pl.TotalRows != 18 {
		t.Fatalf("decoded size %d rows %d", pl.Size(), pl.TotalRows)
	}
	if len(pl.LabelAttrs) != 2 {
		t.Fatalf("label attrs = %v", pl.LabelAttrs)
	}
}

// TestPortableEstimateMatchesLive (property): for every pattern of P_A, the
// portable label's estimate equals the live label's.
func TestPortableEstimateMatchesLive(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "age group")
	l := BuildLabel(d, s)
	pl := l.Portable()
	ps := DistinctTuples(d)
	for i := 0; i < ps.Len(); i++ {
		assign := map[string]string{}
		row := ps.Row(i)
		for _, a := range ps.Attrs(i).Members() {
			assign[d.Attr(a).Name()] = d.Attr(a).Value(row[a])
		}
		got, err := pl.Estimate(assign)
		if err != nil {
			t.Fatal(err)
		}
		if want := l.EstimateRow(row, ps.Attrs(i)); got != want {
			t.Errorf("pattern %d: portable %v != live %v", i, got, want)
		}
	}
}

// TestPortableMarginalization: estimating a pattern that constrains only
// part of S sums matching PC entries.
func TestPortableMarginalization(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "age group")
	l := BuildLabel(d, s)
	pl := l.Portable()
	got, err := pl.Estimate(map[string]string{"gender": "Female"})
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("marginal estimate = %v, want 9", got)
	}
}

func TestPortableEstimateErrors(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "race")
	pl := BuildLabel(d, s).Portable()
	if _, err := pl.Estimate(map[string]string{"ghost": "x"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	// Out-of-domain value → estimate 0, no error.
	got, err := pl.Estimate(map[string]string{"gender": "Robot"})
	if err != nil || got != 0 {
		t.Errorf("out-of-domain = (%v, %v), want (0, nil)", got, err)
	}
	// Empty assignment → |D|.
	got, err = pl.Estimate(nil)
	if err != nil || got != 18 {
		t.Errorf("empty pattern = (%v, %v), want (18, nil)", got, err)
	}
}

// probePortableLabels are documents that decoded before validation
// covered them and then estimated wrongly: a negative total_rows (−7), a
// negative VC count (−2), a negative PC count (−3), a duplicate value
// within one attribute and a duplicate label attribute (21 > total_rows).
var probePortableLabels = []string{
	`{"total_rows":-7,"attributes":[{"name":"a","values":["x"],"counts":[1]}],"label_attributes":[],"pattern_counts":[]}`,
	`{"total_rows":1,"attributes":[{"name":"a","values":["x","y"],"counts":[-2,3]}]}`,
	`{"total_rows":3,"attributes":[{"name":"a","values":["x"],"counts":[3]}],"label_attributes":["a"],"pattern_counts":[{"values":["x"],"count":-3}]}`,
	`{"total_rows":3,"attributes":[{"name":"a","values":["x","x"],"counts":[1,2]}]}`,
	`{"total_rows":4,"attributes":[{"name":"a","values":["x","y"],"counts":[2,2]}],"label_attributes":["a","a"],"pattern_counts":[{"values":["x","y"],"count":21}]}`,
}

func TestDecodeValidation(t *testing.T) {
	cases := append([]string{
		`{`, // broken JSON
		`{"attributes":[{"name":"a","values":["x"],"counts":[1,2]}]}`,                                                                          // misaligned counts
		`{"attributes":[{"name":"a","values":[],"counts":[]},{"name":"a","values":[],"counts":[]}]}`,                                           // duplicate attr
		`{"attributes":[{"name":"a","values":[],"counts":[]}],"label_attributes":["zz"]}`,                                                      // unknown label attr
		`{"attributes":[{"name":"a","values":["x"],"counts":[1]}],"label_attributes":["a"],"pattern_counts":[{"values":["x","y"],"count":1}]}`, // arity
	}, probePortableLabels...)
	for i, c := range cases {
		if _, err := DecodePortableLabel([]byte(c)); err == nil {
			t.Errorf("bad document %d accepted", i)
		}
	}
}

func TestPortableDeterministicEncoding(t *testing.T) {
	d, err := datagen.BlueNile(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := BuildLabel(d, s)
	a, err := l.Portable().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Portable().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("encoding not deterministic (PC ordering unstable)")
	}
	if !strings.Contains(string(a), "pattern_counts") {
		t.Error("JSON missing pattern_counts field")
	}
}

// TestPortableRandomPatterns (property): portable and live estimates agree
// for random partial patterns.
func TestPortableRandomPatterns(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "race")
	l := BuildLabel(d, s)
	pl := l.Portable()
	prop := func(mask uint8, pick uint16) bool {
		attrs := lattice.AttrSet(mask) & lattice.FullSet(d.NumAttrs())
		assign := map[string]string{}
		vals := make([]uint16, d.NumAttrs())
		for _, a := range attrs.Members() {
			dom := d.Attr(a).DomainSize()
			id := uint16(int(pick)%dom) + 1
			vals[a] = id
			assign[d.Attr(a).Name()] = d.Attr(a).Value(id)
		}
		got, err := pl.Estimate(assign)
		if err != nil {
			return false
		}
		want := l.EstimateRow(vals, attrs)
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodePortableLabel feeds untrusted JSON to DecodePortableLabel:
// it must never panic, and every label it accepts must give a finite,
// non-negative estimate for every single value and every pair of values.
func FuzzDecodePortableLabel(f *testing.F) {
	d := testutil.Fig2()
	for _, names := range [][]string{{"age group", "marital status"}, {"gender"}} {
		s, _ := lattice.FromNames(d.AttrNames(), names...)
		data, err := BuildLabel(d, s).Portable().Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range probePortableLabels {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := DecodePortableLabel(data)
		if err != nil {
			return // rejected cleanly
		}
		check := func(assign map[string]string) {
			est, err := pl.Estimate(assign)
			if err != nil {
				t.Fatalf("Estimate(%v): %v", assign, err)
			}
			if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
				t.Fatalf("Estimate(%v) = %v on an accepted label", assign, est)
			}
		}
		for i, a := range pl.Attrs {
			for _, v := range a.Values {
				check(map[string]string{a.Name: v})
				for _, b := range pl.Attrs[i+1:] {
					for _, w := range b.Values {
						check(map[string]string{a.Name: v, b.Name: w})
					}
				}
			}
		}
	})
}
