package artifact

// Tests for artifact-level incremental maintenance: MergeInto must advance
// the epoch atomically — every crash or fault leaves a directory that opens
// as either the old generation or the new one, bit-identical to the
// corresponding rebuild, never torn — and the epoch binding must reject
// deltas built against the wrong generation.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
)

// mergeOracle holds exact probe answers for one generation of the data.
type mergeOracle struct {
	d      *dataset.Dataset // the full dataset probes were phrased against
	counts []int
	oks    []bool
}

func newMergeOracle(t *testing.T, full, gen *dataset.Dataset, probes []core.Pattern) *mergeOracle {
	t.Helper()
	l := mustBuildLabel(t, gen, lattice.FullSet(gen.NumAttrs()), core.CountOptions{})
	o := &mergeOracle{d: full}
	for _, p := range probes {
		c, ok := l.Count(p)
		o.counts = append(o.counts, c)
		o.oks = append(o.oks, ok)
	}
	return o
}

func (o *mergeOracle) check(t *testing.T, trial string, probes []core.Pattern, l *core.Label) {
	t.Helper()
	rd := l.Dataset()
	for i, p := range probes {
		rp := reopenedPattern(t, o.d, rd, p)
		c, ok, err := l.CountCtx(nil, rp)
		if err != nil {
			t.Fatalf("%s: probe %d failed: %v", trial, i, err)
		}
		if c != o.counts[i] || ok != o.oks[i] {
			t.Fatalf("%s: probe %d Count = (%d, %v), oracle (%d, %v) — wrong answer",
				trial, i, c, ok, o.counts[i], o.oks[i])
		}
	}
}

// mergeFixture is the shared shape: a dataset split into a labeled base and
// an appended suffix, probes, and per-generation oracles.
type mergeFixture struct {
	d, base, delta *dataset.Dataset
	probes         []core.Pattern
	baseO, fullO   *mergeOracle
}

func newMergeFixture(t *testing.T) *mergeFixture {
	t.Helper()
	// NULL-free, like the sweep oracles: lazily-derived marginals (what a
	// reopened or merged label serves) are exact only without NULLs, and
	// these tests pin exact answers. NULL-bearing merges are covered at the
	// PC level by the core differential suite.
	d := genDataset(t, 2500, 4, 200, 0, 0xA10)
	base, err := d.Slice(0, 2400)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := d.Slice(2400, d.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	probes := probePatterns(t, d, 48, 0xA11)
	return &mergeFixture{
		d: d, base: base, delta: delta, probes: probes,
		baseO: newMergeOracle(t, d, base, probes),
		fullO: newMergeOracle(t, d, d, probes),
	}
}

// saveBase saves a spilled label over the base rows and returns its
// manifest. Spilling matters: the merge must then rewrite run files inside
// the committed artifact directory, the riskiest payload shape.
func (f *mergeFixture) saveBase(t *testing.T, dir string) *Manifest {
	t.Helper()
	l := mustBuildLabel(t, f.base, lattice.FullSet(4), core.CountOptions{
		MemBudget: 16 << 10, SpillDir: t.TempDir(),
	})
	defer l.ReleaseSpill()
	if !l.PC().Spilled() {
		t.Fatal("base label did not spill; fixture shape needs adjusting")
	}
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	_, m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (f *mergeFixture) deltaLabel(t *testing.T) *core.Label {
	t.Helper()
	return mustBuildLabel(t, f.delta, lattice.FullSet(4), core.CountOptions{})
}

// copyDir clones a saved artifact so each trial mutates a fresh copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "a")
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestMergeIntoDifferential(t *testing.T) {
	f := newMergeFixture(t)
	dir := filepath.Join(t.TempDir(), "a")
	m := f.saveBase(t, dir)
	if m.Epoch != 1 {
		t.Fatalf("fresh artifact epoch = %d, want 1", m.Epoch)
	}

	dl := f.deltaLabel(t)
	nm, err := MergeInto(dir, dl, m)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Epoch != 2 || nm.TotalRows != f.d.NumRows() {
		t.Fatalf("merged manifest: epoch %d rows %d, want 2, %d", nm.Epoch, nm.TotalRows, f.d.NumRows())
	}
	rl, rm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Epoch != 2 {
		t.Fatalf("reopened epoch = %d, want 2", rm.Epoch)
	}
	f.fullO.check(t, "merged", f.probes, rl)
	rl.ReleaseSpill()

	// The superseded generation's payloads must be gone: every file in the
	// directory is referenced by the committed manifest.
	refs := map[string]bool{manifestName: true}
	for _, pm := range rm.PCs {
		if pm.File != "" {
			refs[pm.File] = true
		}
		if pm.Dir != "" {
			refs[pm.Dir] = true
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !refs[e.Name()] {
			t.Errorf("unreferenced entry %q survived the merge", e.Name())
		}
	}

	// A delta bound to the superseded generation must now be refused.
	dl2 := f.deltaLabel(t)
	if _, err := MergeInto(dir, dl2, m); !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("stale-base merge: got %v, want ErrEpochMismatch", err)
	}
	// And merging against the current manifest keeps working: epoch 3.
	nm2, err := MergeInto(dir, dl2, rm)
	if err != nil {
		t.Fatal(err)
	}
	if nm2.Epoch != 3 {
		t.Fatalf("second merge epoch = %d, want 3", nm2.Epoch)
	}
}

func TestSaveDeltaAndMergeDeltaInto(t *testing.T) {
	f := newMergeFixture(t)
	baseDir := filepath.Join(t.TempDir(), "base")
	m := f.saveBase(t, baseDir)

	dl := f.deltaLabel(t)
	deltaDir := filepath.Join(t.TempDir(), "delta")
	if err := SaveDelta(dl, deltaDir, m); err != nil {
		t.Fatal(err)
	}
	_, dm, err := Open(deltaDir)
	if err != nil {
		t.Fatal(err)
	}
	if dm.DeltaOf == nil || dm.DeltaOf.BaseEpoch != 1 || dm.DeltaOf.BaseRows != f.base.NumRows() {
		t.Fatalf("delta binding = %+v", dm.DeltaOf)
	}

	nm, err := MergeDeltaInto(baseDir, deltaDir)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", nm.Epoch)
	}
	rl, _, err := Open(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	f.fullO.check(t, "delta-artifact merge", f.probes, rl)
	rl.ReleaseSpill()

	// Replaying the same delta artifact must fail the epoch check, not
	// double-count.
	if _, err := MergeDeltaInto(baseDir, deltaDir); !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("replay: got %v, want ErrEpochMismatch", err)
	}
	// A plain (non-delta) artifact is not mergeable this way.
	if _, err := MergeDeltaInto(baseDir, baseDir); !errors.Is(err, ErrManifest) {
		t.Fatalf("non-delta source: got %v, want ErrManifest", err)
	}
	// SaveDelta demands a base binding.
	if err := SaveDelta(dl, filepath.Join(t.TempDir(), "x"), nil); err == nil {
		t.Fatal("SaveDelta accepted a nil base manifest")
	}
}

// TestMergeIntoFaultSweep: an I/O error at any injection point of the merge
// must surface cleanly, and the directory must still open as exactly one of
// the two generations with bit-identical answers.
func TestMergeIntoFaultSweep(t *testing.T) {
	f := newMergeFixture(t)
	tmpl := filepath.Join(t.TempDir(), "tmpl")
	m := f.saveBase(t, tmpl)

	counts := recordOps(func(ffs *iofault.FaultFS) {
		dir := copyDir(t, tmpl)
		dl := f.deltaLabel(t)
		if _, err := MergeIntoFS(dir, dl, m, ffs); err != nil {
			t.Fatalf("clean merge failed: %v", err)
		}
	})
	for _, op := range iofault.Ops() {
		for _, n := range sweepPoints(counts[op], 8) {
			trial := "merge/" + op.String()
			dir := copyDir(t, tmpl)
			ffs := iofault.NewFaultFS(nil)
			ffs.FailAt(op, n, nil)
			dl := f.deltaLabel(t)
			_, mergeErr := MergeIntoFS(dir, dl, m, ffs)
			// Success pins the new generation. An error usually leaves the
			// old one, but a fault after the commit rename (the directory
			// fsync, the stale-payload sweep) surfaces as an error with the
			// new generation already durable — either is consistent.
			f.checkGeneration(t, trial, n, dir, mergeErr == nil, false)
		}
	}
}

// TestMergeIntoKillSweep is the crash-consistency half: the process dies at
// each operation of the merge. The manifest rename is the commit point —
// the directory must open as old-or-new, never torn — and a post-crash
// retry of the merge must succeed against the surviving generation.
func TestMergeIntoKillSweep(t *testing.T) {
	f := newMergeFixture(t)
	tmpl := filepath.Join(t.TempDir(), "tmpl")
	m := f.saveBase(t, tmpl)

	counts := recordOps(func(ffs *iofault.FaultFS) {
		dir := copyDir(t, tmpl)
		dl := f.deltaLabel(t)
		if _, err := MergeIntoFS(dir, dl, m, ffs); err != nil {
			t.Fatalf("clean merge failed: %v", err)
		}
	})
	for _, op := range iofault.Ops() {
		for _, n := range sweepPoints(counts[op], 6) {
			trial := "kill/" + op.String()
			dir := copyDir(t, tmpl)
			ffs := iofault.NewFaultFS(nil)
			ffs.KillAt(op, n)
			dl := f.deltaLabel(t)
			_, mergeErr := MergeIntoFS(dir, dl, m, ffs)
			if mergeErr == nil && ffs.Killed() {
				t.Fatalf("%s@%d: merge swallowed the crash", trial, n)
			}
			epoch := f.checkGeneration(t, trial, n, dir, false, false)

			// Restart semantics: a rerun of the update against whatever
			// generation survived must complete and land on full counts.
			rl, rm, err := Open(dir)
			if err != nil {
				t.Fatalf("%s@%d: post-crash open: %v", trial, n, err)
			}
			rl.ReleaseSpill()
			if epoch == 1 {
				dl2 := f.deltaLabel(t)
				if _, err := MergeInto(dir, dl2, rm); err != nil {
					t.Fatalf("%s@%d: post-crash retry failed: %v", trial, n, err)
				}
				rl2, rm2, err := Open(dir)
				if err != nil {
					t.Fatalf("%s@%d: open after retry: %v", trial, n, err)
				}
				if rm2.Epoch != 2 {
					t.Fatalf("%s@%d: retry epoch = %d, want 2", trial, n, rm2.Epoch)
				}
				f.fullO.check(t, trial+"/retry", f.probes, rl2)
				rl2.ReleaseSpill()
			}
		}
	}
}

// checkGeneration opens dir through the real filesystem and asserts it is
// exactly one untorn generation: epoch 1 answering like the base rebuild or
// epoch 2 answering like the full rebuild. mustNew/mustOld pin the outcome
// when the merge's own return value already decides it.
func (f *mergeFixture) checkGeneration(t *testing.T, trial string, n int64, dir string, mustNew, mustOld bool) int64 {
	t.Helper()
	rl, rm, err := Open(dir)
	if err != nil {
		t.Fatalf("%s@%d: artifact no longer opens: %v", trial, n, err)
	}
	defer rl.ReleaseSpill()
	switch {
	case rm.Epoch == 1 && !mustNew:
		if rm.TotalRows != f.base.NumRows() {
			t.Fatalf("%s@%d: epoch 1 with %d rows", trial, n, rm.TotalRows)
		}
		f.baseO.check(t, trial, f.probes, rl)
	case rm.Epoch == 2 && !mustOld:
		if rm.TotalRows != f.d.NumRows() {
			t.Fatalf("%s@%d: epoch 2 with %d rows", trial, n, rm.TotalRows)
		}
		f.fullO.check(t, trial, f.probes, rl)
	default:
		t.Fatalf("%s@%d: epoch %d (mustNew=%v mustOld=%v)", trial, n, rm.Epoch, mustNew, mustOld)
	}
	return rm.Epoch
}
