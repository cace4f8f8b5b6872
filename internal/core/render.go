package core

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
)

// RenderOptions controls the text rendering of a label.
type RenderOptions struct {
	// VCAttrs restricts the value-count section to the named attributes
	// (paper §II-B: "attributes can be filtered-out in order to adjust the
	// information to the user's interest"). All attributes when empty.
	VCAttrs []string
	// MaxPCRows truncates the pattern-count section; 0 means no limit.
	MaxPCRows int
	// Eval, when non-nil, appends the error summary block of Fig 1
	// (average error, maximal error, standard deviation).
	Eval *EvalResult
}

// Render produces the human-readable "nutrition label" of Fig 1: total data
// size, the per-attribute value counts with percentages, the pattern counts
// of the label's attribute set, and optionally an error summary. A failed
// run read on a merge-on-read PC section panics, as Count does.
func Render(l *Label, opts RenderOptions) string {
	d := l.Dataset()
	total := l.rows
	var b strings.Builder
	fmt.Fprintf(&b, "Total size: %s\n\n", groupDigits(total))

	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Attribute\tValue\tCount\t%")
	vcAttrs := opts.VCAttrs
	if len(vcAttrs) == 0 {
		vcAttrs = d.AttrNames()
	}
	for _, name := range vcAttrs {
		a, ok := d.AttrIndex(name)
		if !ok {
			continue
		}
		counts := l.vc[a]
		// Render values by decreasing count for readability.
		order := make([]int, len(counts))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return counts[order[x]] > counts[order[y]] })
		for k, i := range order {
			label := ""
			if k == 0 {
				label = name
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n",
				label, d.Attr(a).Value(uint16(i+1)), groupDigits(counts[i]), pct(counts[i], total))
		}
	}
	w.Flush()

	names := l.attrs.Format(d.AttrNames())
	fmt.Fprintf(&b, "\nPattern counts over %s (%d patterns)\n", names, l.Size())
	w = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	header := make([]string, 0, l.attrs.Size()+2)
	for _, i := range l.attrs.Members() {
		header = append(header, d.Attr(i).Name())
	}
	fmt.Fprintln(w, strings.Join(header, "\t")+"\tCount\t%")

	type row struct {
		vals  []string
		count int
	}
	rows := make([]row, 0, l.Size())
	if err := l.pc.EachCtx(nil, d.NumAttrs(), func(vals []uint16, c int) bool {
		r := row{count: c}
		for _, i := range l.attrs.Members() {
			r.vals = append(r.vals, d.Attr(i).Value(vals[i]))
		}
		rows = append(rows, r)
		return true
	}); err != nil {
		panic(err.Error())
	}
	sort.Slice(rows, func(x, y int) bool {
		if rows[x].count != rows[y].count {
			return rows[x].count > rows[y].count
		}
		return strings.Join(rows[x].vals, "\x00") < strings.Join(rows[y].vals, "\x00")
	})
	shown := len(rows)
	if opts.MaxPCRows > 0 && shown > opts.MaxPCRows {
		shown = opts.MaxPCRows
	}
	for _, r := range rows[:shown] {
		fmt.Fprintf(w, "%s\t%s\t%s\n", strings.Join(r.vals, "\t"), groupDigits(r.count), pct(r.count, total))
	}
	w.Flush()
	if shown < len(rows) {
		fmt.Fprintf(&b, "… %d more patterns elided\n", len(rows)-shown)
	}

	if opts.Eval != nil {
		e := opts.Eval
		fmt.Fprintf(&b, "\nAverage Error\t%s\t%s\n", groupDigits(int(e.MeanAbs+0.5)), pctFloat(e.MeanAbs, total))
		fmt.Fprintf(&b, "Maximal Error\t%s\t%s\n", groupDigits(int(e.MaxAbs+0.5)), pctFloat(e.MaxAbs, total))
		fmt.Fprintf(&b, "Standard deviation\t%s\n", groupDigits(int(e.StdAbs+0.5)))
	}
	return b.String()
}

// groupDigits renders 1234567 as "1,234,567".
func groupDigits(n int) string {
	neg := n < 0
	if neg {
		n = -n
	}
	s := fmt.Sprint(n)
	if len(s) > 3 {
		var parts []string
		for len(s) > 3 {
			parts = append([]string{s[len(s)-3:]}, parts...)
			s = s[:len(s)-3]
		}
		s = s + "," + strings.Join(parts, ",")
	}
	if neg {
		s = "-" + s
	}
	return s
}

func pct(part, total int) string { return pctFloat(float64(part), total) }

func pctFloat(part float64, total int) string {
	if total == 0 {
		return "-"
	}
	p := 100 * part / float64(total)
	switch {
	case p >= 1:
		return fmt.Sprintf("%.0f%%", p)
	case p >= 0.1:
		return fmt.Sprintf("%.1f%%", p)
	default:
		return fmt.Sprintf("%.2f%%", p)
	}
}
