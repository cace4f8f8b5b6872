package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"pcbl"
	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/search"
	"pcbl/internal/workpool"
)

const (
	// buildBound is the label size bound B_s of every searched build.
	buildBound = 50
	// spillBudget is the serve-mixed label's MemBudget: far below its PC
	// section's in-memory footprint, so the section is spilled and the
	// artifact's frozen read budget pins only a fraction of its runs.
	spillBudget = 64 << 10
)

// bucketOpts is the bucketization `pcbl label` applies: 5 equal-frequency
// bins, the paper's CreditCard preparation.
var bucketOpts = dataset.BucketizeOptions{Bins: datagen.CreditCardBins, Strategy: dataset.EqualFrequency}

// buildOutcome is what one build produced.
type buildOutcome struct {
	attrs  []string
	size   int
	maxErr float64 // search builds only
	cost   cost    // untraced builds only
	label  *core.Label
	d      *dataset.Dataset // the bucketized dataset the label was built on
}

// same reports whether two builds picked the identical label.
func (b *buildOutcome) same(o *buildOutcome) bool {
	return slices.Equal(b.attrs, o.attrs) && b.size == o.size && b.maxErr == o.maxErr
}

func (b *buildOutcome) String() string {
	return fmt.Sprintf("attrs=%v size=%d maxErr=%v", b.attrs, b.size, b.maxErr)
}

// build runs one untraced pipeline through the public facade: ReadCSV,
// BucketizeAllNumeric, then GenerateCtx (or BuildLabelWith for a fixed
// attribute set), then SaveLabelArtifact into dir.
func build(in *buildInput, dir, spillDir string) (*buildOutcome, error) {
	d, err := pcbl.ReadCSV(bytes.NewReader(in.csv), pcbl.CSVOptions{Name: "input"})
	if err != nil {
		return nil, err
	}
	if d, err = pcbl.BucketizeAllNumeric(d, bucketOpts); err != nil {
		return nil, err
	}
	out := &buildOutcome{d: d}
	if in.attrs == nil {
		res, err := pcbl.GenerateCtx(context.Background(), d, pcbl.GenerateOptions{
			Bound:    buildBound,
			FastEval: true,
			Engine:   pcbl.EngineOptions{SpillDir: spillDir},
		})
		if err != nil {
			return nil, err
		}
		out.label, out.maxErr = res.Label, res.MaxErr
	} else {
		l, err := pcbl.BuildLabelWith(d, pcbl.LabelOptions{Engine: serveEngine(spillDir)}, in.attrs...)
		if err != nil {
			return nil, err
		}
		out.label = l
	}
	if err := pcbl.SaveLabelArtifact(out.label, dir); err != nil {
		return nil, err
	}
	out.attrs = attrNames(d, out.label.Attrs())
	out.size = out.label.Size()
	return out, nil
}

// serveEngine is the engine the fixed-attribute label and its deltas are
// counted with.
func serveEngine(spillDir string) pcbl.EngineOptions {
	return pcbl.EngineOptions{MemBudget: spillBudget, SpillDir: spillDir}
}

// replayCounts are the work counters one traced build records.
type replayCounts struct {
	labelsBuilt     int
	rowsScanned     int64
	patternsScanned int64
	setsSized       int
	refinedSets     int
	poolHits        int64
	poolMisses      int64
	rows            int
}

// replay is build with spans around each call into a layer. The search
// is replayed through its public calls — search.Enumerate, then every
// candidate evaluated with core.BuildLabelOptsCtx and core.MaxAbsError
// (sorted) over the worker count the search's own evaluation uses — so
// it must pick the label GenerateCtx picks. root is the build's span.
func replay(in *buildInput, dir, spillDir string, tr *tracer, req int64) (*buildOutcome, *replayCounts, error) {
	ctx := context.Background()
	root := tr.begin("loadgen.build", 0, req)
	var err error
	var d *dataset.Dataset
	tr.do("dataset.read_csv", root, req, func() {
		d, err = dataset.ReadCSV(bytes.NewReader(in.csv), dataset.CSVOptions{Name: "input"})
	})
	if err != nil {
		return nil, nil, err
	}
	tr.do("dataset.bucketize", root, req, func() { d, err = dataset.BucketizeAllNumeric(d, bucketOpts) })
	if err != nil {
		return nil, nil, err
	}
	out := &buildOutcome{d: d}
	rc := &replayCounts{rows: d.NumRows()}
	if in.attrs != nil {
		s, err := lattice.FromNames(d.AttrNames(), in.attrs...)
		if err != nil {
			return nil, nil, err
		}
		eng := serveEngine(spillDir)
		var st core.ScanStats
		tr.do("core.build_label", root, req, func() {
			out.label, err = core.BuildLabelOptsCtx(ctx, d, s, core.CountOptions{MemBudget: eng.MemBudget, SpillDir: eng.SpillDir, Stats: &st})
		})
		if err != nil {
			return nil, nil, err
		}
		rc.labelsBuilt, rc.rowsScanned = 1, st.RowsScanned
	} else {
		var ps *core.PatternSet
		tr.do("core.distinct_tuples", root, req, func() { ps = core.DistinctTuples(d) })
		var cands []lattice.AttrSet
		var st search.Stats
		tr.do("search.enumerate", root, req, func() {
			cands, st, err = search.Enumerate(d, search.Options{Bound: buildBound, FastEval: true, SpillDir: spillDir})
		})
		if err != nil {
			return nil, nil, err
		}
		if len(cands) == 0 {
			return nil, nil, fmt.Errorf("replay: no candidate of size ≥ 2 fits bound %d", buildBound)
		}
		rc.setsSized, rc.refinedSets = st.SizeComputed, st.RefinedSets
		rc.poolHits, rc.poolMisses = st.PoolHits, st.PoolMisses
		if out.label, out.maxErr, err = evaluate(ctx, d, ps, cands, spillDir, tr, root, req, rc); err != nil {
			return nil, nil, err
		}
	}
	tr.do("artifact.save", root, req, func() { err = artifact.Save(out.label, dir) })
	if err != nil {
		return nil, nil, err
	}
	tr.end(root)
	out.attrs = attrNames(d, out.label.Attrs())
	out.size = out.label.Size()
	return out, rc, nil
}

// evaluate scores every candidate as the search's evaluation phase does —
// single-threaded label builds when candidates run concurrently, sorted
// early-terminating max-error scans — and returns the first candidate with
// the least error.
func evaluate(ctx context.Context, d *dataset.Dataset, ps *core.PatternSet, cands []lattice.AttrSet, spillDir string, tr *tracer, root int, req int64, rc *replayCounts) (*core.Label, float64, error) {
	tr.do("core.sort_patterns", root, req, ps.SortByCountDesc)
	eval := tr.begin("core.evaluate", root, req)
	defer tr.end(eval)
	co := core.CountOptions{Workers: 1, SpillDir: spillDir}
	if len(cands) == 1 {
		co.Workers = 0
	}
	type scored struct {
		label   *core.Label
		maxErr  float64
		scanned int
		rows    int64
		err     error
	}
	results := make([]scored, len(cands))
	workpool.Do(len(cands), 0, func(i int) {
		var st core.ScanStats
		o := co
		o.Stats = &st
		r := &results[i]
		tr.do("core.build_label", eval, req, func() { r.label, r.err = core.BuildLabelOptsCtx(ctx, d, cands[i], o) })
		if r.err != nil {
			return
		}
		tr.do("core.max_abs_error", eval, req, func() {
			r.maxErr, r.scanned = core.MaxAbsError(r.label, ps, core.MaxErrOptions{Sorted: true, Workers: 1})
		})
		r.rows = st.RowsScanned
	})
	best := -1
	for i, r := range results {
		if r.err != nil {
			return nil, 0, r.err
		}
		rc.labelsBuilt++
		rc.rowsScanned += r.rows
		rc.patternsScanned += int64(r.scanned)
		if best < 0 || r.maxErr < results[best].maxErr {
			best = i
		}
	}
	return results[best].label, results[best].maxErr, nil
}

// attrNames lists the names of the attributes in s.
func attrNames(d *dataset.Dataset, s lattice.AttrSet) []string {
	var out []string
	for _, a := range s.Members() {
		out = append(out, d.Attr(a).Name())
	}
	return out
}
