package pcbl

import (
	"path/filepath"
	"strings"
	"testing"

	"pcbl/internal/testutil"
)

func TestFacadeEndToEnd(t *testing.T) {
	d := testutil.Fig2()
	res, err := GenerateLabel(d, GenerateOptions{Bound: 5, Engine: EngineOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size > 5 {
		t.Errorf("label size %d exceeds bound", res.Size)
	}
	// Example 2.12 through the facade.
	l, err := BuildLabel(d, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPattern(d, map[string]string{
		"gender": "Female", "age group": "20-39", "marital status": "married",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Estimate(p); got != 3 {
		t.Errorf("estimate = %v, want 3", got)
	}
	if got := Count(d, p); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	eval := Evaluate(l, nil)
	if eval.N != 18 {
		t.Errorf("eval N = %d", eval.N)
	}
	out := RenderLabel(l, &eval)
	if !strings.Contains(out, "Total size: 18") {
		t.Errorf("render missing total: %s", out)
	}
}

func TestFacadeNaive(t *testing.T) {
	d := testutil.Fig2()
	res, err := GenerateLabel(d, GenerateOptions{Bound: 5, Algorithm: Naive, Engine: EngineOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size > 5 {
		t.Error("naive exceeded bound")
	}
	if _, err := GenerateLabel(d, GenerateOptions{Bound: 5, Algorithm: "zigzag"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestFacadePortableRoundTrip(t *testing.T) {
	d := testutil.Fig2()
	l, err := BuildLabel(d, "gender", "race")
	if err != nil {
		t.Fatal(err)
	}
	// A label reopened from an artifact carries a schema-only dataset; it
	// must export exactly what the in-process label does.
	dir := filepath.Join(t.TempDir(), "artifact")
	if err := SaveLabelArtifact(l, dir); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := OpenLabelArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantData, err := EncodeLabel(l)
	if err != nil {
		t.Fatal(err)
	}
	wantText := RenderLabel(l, nil)
	assign := map[string]string{"gender": "Female", "race": "Hispanic", "marital status": "divorced"}
	p, _ := NewPattern(d, assign)
	want := l.Estimate(p)
	for _, in := range []struct {
		name  string
		label *Label
	}{{"in-process", l}, {"reopened", reopened}} {
		data, err := EncodeLabel(in.label)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(wantData) {
			t.Errorf("%s: EncodeLabel differs from the in-process label:\n%s\nwant\n%s", in.name, data, wantData)
		}
		if text := RenderLabel(in.label, nil); text != wantText {
			t.Errorf("%s: RenderLabel differs from the in-process label:\n%s\nwant\n%s", in.name, text, wantText)
		}
		pl, err := DecodeLabel(data)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Size() != l.Size() {
			t.Errorf("%s: portable size %d != %d", in.name, pl.Size(), l.Size())
		}
		// Estimates agree with the live label.
		got, err := pl.Estimate(assign)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: portable estimate %v != live %v", in.name, got, want)
		}
	}
}

func TestFacadeCSV(t *testing.T) {
	d := testutil.Fig2()
	var sb strings.Builder
	if err := WriteCSV(&sb, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{Name: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 18 || back.NumAttrs() != 4 {
		t.Errorf("round trip shape (%d, %d)", back.NumRows(), back.NumAttrs())
	}
}

func TestAttrSetOf(t *testing.T) {
	d := testutil.Fig2()
	s, err := AttrSetOf(d, "gender", "race")
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 {
		t.Error("attr set size wrong")
	}
	if _, err := AttrSetOf(d, "nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestFacadeExtensions(t *testing.T) {
	d := testutil.Fig2()
	// ParsePattern through the expression grammar.
	p, err := ParsePattern(d, "gender = Female AND race = Hispanic")
	if err != nil {
		t.Fatal(err)
	}
	if got := Count(d, p); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if _, err := ParsePattern(d, "gender ="); err == nil {
		t.Error("bad expression accepted")
	}
	// PatternsOver as workload.
	ps, err := PatternsOver(d, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 3 {
		t.Errorf("P_S size = %d, want 3", ps.Len())
	}
	// Partial label agrees with the standard label on NULL-free data.
	pl, err := BuildPartialLabel(d, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	l, _ := BuildLabel(d, "age group", "marital status")
	if pl.Estimate(p) != l.Estimate(p) {
		t.Error("partial and standard labels disagree on NULL-free data")
	}
	// HTML report renders.
	var sb strings.Builder
	eval := Evaluate(l, nil)
	if err := WriteHTMLReport(&sb, l, &eval); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<!DOCTYPE html>") {
		t.Error("HTML report malformed")
	}
}

func TestFacadeLabelSize(t *testing.T) {
	d := testutil.Fig2()
	// Example 2.10: |P_{age group, marital status}| = 3.
	size, within, err := LabelSize(d, -1, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 || !within {
		t.Errorf("LabelSize = (%d, %v), want (3, true)", size, within)
	}
	// Bound-abort contract: a bound below the true size reports bound+1.
	size, within, err = LabelSize(d, 2, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 || within {
		t.Errorf("capped LabelSize = (%d, %v), want (3, false)", size, within)
	}
	if _, _, err := LabelSize(d, -1, "no such attribute"); err == nil {
		t.Error("unknown attribute accepted")
	}

	// The fused frontier scan agrees with the per-set path.
	s1, err := AttrSetOf(d, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := AttrSetOf(d, "gender")
	if err != nil {
		t.Fatal(err)
	}
	sizes, withins := LabelSizes(d, []AttrSet{s1, s2}, 5, 2)
	if sizes[0] != 3 || !withins[0] {
		t.Errorf("LabelSizes[0] = (%d, %v), want (3, true)", sizes[0], withins[0])
	}
	if sizes[1] != 2 || !withins[1] {
		t.Errorf("LabelSizes[1] = (%d, %v), want (2, true)", sizes[1], withins[1])
	}
}
