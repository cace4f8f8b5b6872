package main

import (
	"bytes"
	"encoding/csv"
	"math/rand/v2"
	"net/url"
	"strings"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/patexpr"
)

// Query mix and pool sizes.
const (
	countShare    = 0.80
	estimateShare = 0.15 // the rest are /v1/marginal
	countPool     = 1024
	estimatePool  = 256
	missEvery     = 20 // one count pattern in missEvery is absent from the data
	zipfS         = 1.1
	// appendShare is the share of the base rows one update round appends.
	appendShare = 0.01
)

type kind int

const (
	kindCount kind = iota
	kindEstimate
	kindMarginal
)

// countQuery is one /v1/count pattern with its oracle counts.
type countQuery struct {
	path  string
	base  int   // count over the base rows
	delta []int // count over each appended chunk
}

// oracle is the exact count once the first g chunks are appended.
func (q *countQuery) oracle(g int) int {
	c := q.base
	for _, d := range q.delta[:min(g, len(q.delta))] {
		c += d
	}
	return c
}

// serveInput is everything the serve phase sends, derived from the seed,
// the served dataset and its label attributes.
type serveInput struct {
	labelAttrs []string
	chunks     [][]byte // one chunk of appended CSV rows per update round
	counts     []countQuery
	estimates  []string
	marginals  []string
}

// genServeInput derives the query pools and the appended chunks. Count
// patterns cover every label attribute and are drawn from rows (a few are
// altered to miss); estimates pair a small subset of the label attributes
// with one attribute outside the label; marginals enumerate those subsets.
// Appended rows are resampled from the base rows.
func genServeInput(d *dataset.Dataset, s lattice.AttrSet, seed uint64, rounds int) *serveInput {
	rng := rand.New(rand.NewPCG(seed, 0x5E12E))
	names := d.AttrNames()
	label := s.Members()
	in := &serveInput{labelAttrs: attrNames(d, s)}

	// A pattern over the label attributes is keyed by its value ids.
	key := func(vals []uint16) string {
		var b strings.Builder
		for _, a := range label {
			b.WriteByte(byte(vals[a] >> 8))
			b.WriteByte(byte(vals[a]))
		}
		return b.String()
	}
	// rowVals is row r's values over the label attributes; ok is false
	// when one is NULL.
	rowVals := func(r int) (vals []uint16, ok bool) {
		vals = make([]uint16, d.NumAttrs())
		for _, a := range label {
			if vals[a] = d.ID(r, a); vals[a] == dataset.Null {
				return nil, false
			}
		}
		return vals, true
	}
	tally := func(rows []int) map[string]int {
		m := make(map[string]int)
		for _, r := range rows {
			if vals, ok := rowVals(r); ok {
				m[key(vals)]++
			}
		}
		return m
	}
	all := make([]int, d.NumRows())
	for r := range all {
		all[r] = r
	}
	base := tally(all)

	chunkRows := max(1, int(appendShare*float64(d.NumRows())))
	chunkCounts := make([]map[string]int, rounds)
	for g := range rounds {
		rows := make([]int, chunkRows)
		for i := range rows {
			rows[i] = rng.IntN(d.NumRows())
		}
		in.chunks = append(in.chunks, csvRows(d, rows))
		chunkCounts[g] = tally(rows)
	}

	for i := 0; len(in.counts) < countPool; i++ {
		vals, ok := rowVals(rng.IntN(d.NumRows()))
		if !ok {
			continue
		}
		if i%missEvery == missEvery-1 {
			// Alter one value until the pattern matches no base row.
			for range 20 {
				a := label[rng.IntN(len(label))]
				old := vals[a]
				vals[a] = uint16(1 + rng.IntN(d.Attr(a).DomainSize()))
				if base[key(vals)] == 0 {
					break
				}
				vals[a] = old
			}
		}
		k := key(vals)
		assign := make(map[string]string, len(label))
		for _, a := range label {
			assign[names[a]] = d.Attr(a).Value(vals[a])
		}
		q := countQuery{path: "/v1/count?q=" + url.QueryEscape(patexpr.Format(names, assign)), base: base[k]}
		for g := range rounds {
			q.delta = append(q.delta, chunkCounts[g][k])
		}
		in.counts = append(in.counts, q)
	}

	subsets := estimateSubsets(label)
	var outside []int
	for a := range d.NumAttrs() {
		if !s.Has(a) {
			outside = append(outside, a)
		}
	}
	for _, sub := range subsets {
		var parts []string
		for _, a := range sub {
			parts = append(parts, names[a])
		}
		in.marginals = append(in.marginals, "/v1/marginal?attrs="+url.QueryEscape(strings.Join(parts, ",")))
	}
	for len(in.estimates) < estimatePool {
		r := rng.IntN(d.NumRows())
		attrs := subsets[len(in.estimates)%len(subsets)]
		if len(outside) > 0 {
			attrs = append(attrs[:len(attrs):len(attrs)], outside[rng.IntN(len(outside))])
		}
		assign := make(map[string]string, len(attrs))
		for _, a := range attrs {
			if d.ID(r, a) != dataset.Null {
				assign[names[a]] = d.Value(r, a)
			}
		}
		if len(assign) == len(attrs) {
			in.estimates = append(in.estimates, "/v1/estimate?q="+url.QueryEscape(patexpr.Format(names, assign)))
		}
	}
	return in
}

// estimateSubsets picks the label-attribute subsets estimates and
// marginals constrain: two disjoint pairs when the label has at least four
// attributes, overlapping pairs for three, single attributes for two.
// Their marginal indexes are small, so warmed estimates stay in memory.
func estimateSubsets(label []int) [][]int {
	switch {
	case len(label) >= 4:
		return [][]int{{label[0], label[1]}, {label[2], label[3]}}
	case len(label) == 3:
		return [][]int{{label[0], label[1]}, {label[1], label[2]}}
	case len(label) == 2:
		return [][]int{{label[0]}, {label[1]}}
	}
	return [][]int{label}
}

// csvRows renders the given rows of d as headerless CSV.
func csvRows(d *dataset.Dataset, rows []int) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	rec := make([]string, d.NumAttrs())
	for _, r := range rows {
		for a := range rec {
			rec[a] = d.Value(r, a)
		}
		_ = w.Write(rec) // writes to a bytes.Buffer cannot fail
	}
	w.Flush()
	return buf.Bytes()
}

// request is one scheduled query.
type request struct {
	kind kind
	path string
	q    int // index into counts for a count, whose answer is checked; else -1
}

// mix draws n requests of the query mix: counts Zipf-skewed over the
// count pool, estimates and marginals uniform over theirs.
func (in *serveInput) mix(rng *rand.Rand, n int) []request {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(in.counts)-1))
	out := make([]request, n)
	for i := range out {
		switch x := rng.Float64(); {
		case x < countShare:
			q := int(zipf.Uint64())
			out[i] = request{kind: kindCount, path: in.counts[q].path, q: q}
		case x < countShare+estimateShare:
			out[i] = request{kind: kindEstimate, path: in.estimates[rng.IntN(len(in.estimates))], q: -1}
		default:
			out[i] = request{kind: kindMarginal, path: in.marginals[rng.IntN(len(in.marginals))], q: -1}
		}
	}
	return out
}
