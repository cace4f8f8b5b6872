package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// PortableLabel is a self-contained, serializable form of a label — the
// artifact the paper envisages shipping as metadata alongside a published
// dataset. It carries everything the estimation function needs (VC, PC, the
// total row count and the attribute domains) and nothing else; estimates can
// be computed without access to the original data.
type PortableLabel struct {
	// Dataset is the display name of the labeled dataset.
	Dataset string `json:"dataset,omitempty"`
	// TotalRows is |D|.
	TotalRows int `json:"total_rows"`
	// Attrs lists every attribute with its active domain and value counts
	// (the VC section): Counts[i] is the count of Values[i].
	Attrs []PortableAttr `json:"attributes"`
	// LabelAttrs names the attribute set S of the PC section.
	LabelAttrs []string `json:"label_attributes"`
	// PC holds one entry per positive-count pattern over S.
	PC []PortablePattern `json:"pattern_counts"`
}

// PortableAttr is one attribute's VC section.
type PortableAttr struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
	Counts []int    `json:"counts"`
}

// PortablePattern is one PC entry; Values aligns with
// PortableLabel.LabelAttrs.
type PortablePattern struct {
	Values []string `json:"values"`
	Count  int      `json:"count"`
}

// Portable converts the label to its self-contained form. A failed run
// read on a merge-on-read PC section panics, as Count does.
func (l *Label) Portable() *PortableLabel {
	d := l.Dataset()
	pl := &PortableLabel{
		Dataset:   d.Name(),
		TotalRows: l.rows,
	}
	for a := 0; a < d.NumAttrs(); a++ {
		attr := d.Attr(a)
		pl.Attrs = append(pl.Attrs, PortableAttr{
			Name:   attr.Name(),
			Values: attr.Domain(),
			Counts: append([]int(nil), l.vc[a]...),
		})
	}
	members := l.attrs.Members()
	for _, i := range members {
		pl.LabelAttrs = append(pl.LabelAttrs, d.Attr(i).Name())
	}
	if err := l.pc.EachCtx(nil, d.NumAttrs(), func(vals []uint16, c int) bool {
		e := PortablePattern{Count: c}
		for _, i := range members {
			e.Values = append(e.Values, d.Attr(i).Value(vals[i]))
		}
		pl.PC = append(pl.PC, e)
		return true
	}); err != nil {
		panic(err.Error())
	}
	sort.Slice(pl.PC, func(x, y int) bool {
		return strings.Join(pl.PC[x].Values, "\x00") < strings.Join(pl.PC[y].Values, "\x00")
	})
	return pl
}

// MarshalJSON is provided by encoding/json on the exported fields; Encode is
// a convenience producing indented JSON.
func (pl *PortableLabel) Encode() ([]byte, error) {
	return json.MarshalIndent(pl, "", "  ")
}

// DecodePortableLabel parses a label previously produced by Encode.
func DecodePortableLabel(data []byte) (*PortableLabel, error) {
	var pl PortableLabel
	if err := json.Unmarshal(data, &pl); err != nil {
		return nil, fmt.Errorf("core: decoding portable label: %w", err)
	}
	if err := pl.validate(); err != nil {
		return nil, err
	}
	return &pl, nil
}

// validate rejects documents that Estimate would answer wrongly: counts
// must be non-negative, and a name may appear once among the attributes,
// once among one attribute's values and once among the label attributes.
func (pl *PortableLabel) validate() error {
	if pl.TotalRows < 0 {
		return fmt.Errorf("core: negative total_rows %d", pl.TotalRows)
	}
	names := make(map[string]bool, len(pl.Attrs))
	for _, a := range pl.Attrs {
		if len(a.Values) != len(a.Counts) {
			return fmt.Errorf("core: attribute %q has %d values but %d counts", a.Name, len(a.Values), len(a.Counts))
		}
		if names[a.Name] {
			return fmt.Errorf("core: duplicate attribute %q", a.Name)
		}
		names[a.Name] = true
		values := make(map[string]bool, len(a.Values))
		for i, v := range a.Values {
			if values[v] {
				return fmt.Errorf("core: attribute %q has duplicate value %q", a.Name, v)
			}
			values[v] = true
			if a.Counts[i] < 0 {
				return fmt.Errorf("core: attribute %q value %q has negative count %d", a.Name, v, a.Counts[i])
			}
		}
	}
	inLabel := make(map[string]bool, len(pl.LabelAttrs))
	for _, n := range pl.LabelAttrs {
		if !names[n] {
			return fmt.Errorf("core: label attribute %q not among attributes", n)
		}
		if inLabel[n] {
			return fmt.Errorf("core: duplicate label attribute %q", n)
		}
		inLabel[n] = true
	}
	for _, e := range pl.PC {
		if len(e.Values) != len(pl.LabelAttrs) {
			return fmt.Errorf("core: pattern entry has %d values, want %d", len(e.Values), len(pl.LabelAttrs))
		}
		if e.Count < 0 {
			return fmt.Errorf("core: pattern entry %q has negative count %d", e.Values, e.Count)
		}
	}
	return nil
}

// Size returns |PC|.
func (pl *PortableLabel) Size() int { return len(pl.PC) }

// Estimate computes Est(p, l) for a pattern given as attribute-name → value
// assignments, using only the information stored in the portable label. The
// base count c_D(p|S) is resolved from the PC section (marginalizing over
// unconstrained label attributes by summation); independence fractions come
// from the VC section. Unknown attributes are an error; values outside an
// attribute's recorded domain yield estimate 0.
func (pl *PortableLabel) Estimate(assign map[string]string) (float64, error) {
	attrIdx := make(map[string]int, len(pl.Attrs))
	for i, a := range pl.Attrs {
		attrIdx[a.Name] = i
	}
	labelPos := make(map[string]int, len(pl.LabelAttrs))
	for i, n := range pl.LabelAttrs {
		labelPos[n] = i
	}
	// Split the assignment into label attributes and outside attributes.
	inLabel := make(map[int]string) // position in LabelAttrs -> value
	var outside []string            // attribute names outside S
	for name := range assign {
		if _, ok := attrIdx[name]; !ok {
			return 0, fmt.Errorf("core: unknown attribute %q", name)
		}
		if pos, ok := labelPos[name]; ok {
			inLabel[pos] = assign[name]
		} else {
			outside = append(outside, name)
		}
	}
	// Base count: sum of PC entries matching the constrained label slots.
	base := 0.0
	if len(inLabel) == 0 {
		base = float64(pl.TotalRows)
	} else {
		for _, e := range pl.PC {
			match := true
			for pos, want := range inLabel {
				if e.Values[pos] != want {
					match = false
					break
				}
			}
			if match {
				base += float64(e.Count)
			}
		}
	}
	if base == 0 {
		return 0, nil
	}
	est := base
	sort.Strings(outside)
	for _, name := range outside {
		a := pl.Attrs[attrIdx[name]]
		// The total sums in float64: an int sum of huge decoded counts
		// could wrap negative.
		total, match := 0.0, -1
		for i, v := range a.Values {
			total += float64(a.Counts[i])
			if v == assign[name] {
				match = i
			}
		}
		if match < 0 || total == 0 {
			return 0, nil
		}
		est *= float64(a.Counts[match]) / total
	}
	return est, nil
}
