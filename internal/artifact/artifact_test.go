package artifact

// Round-trip identity tests: a label saved and reopened must answer every
// query bit-identically to the in-process label — sizes, full PC dumps,
// exact restricted counts, and float64 estimates — across all four PC
// storage representations, with spilled payloads adopted (not re-counted)
// and reopened read-only.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// genDataset builds a random dataset with the given shape.
func genDataset(t *testing.T, rows, attrs, domain int, nullRate float64, seed uint64) *dataset.Dataset {
	t.Helper()
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder("roundtrip", names...)
	for a := 0; a < attrs; a++ {
		for v := 0; v < domain; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xA57))
	vals := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for a := range vals {
			if nullRate > 0 && rng.Float64() < nullRate {
				vals[a] = ""
			} else {
				vals[a] = fmt.Sprintf("v%d", rng.IntN(domain))
			}
		}
		bld.AppendStrings(vals...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustBuildLabel builds a label whose options arm no context, so an error
// is a bug.
func mustBuildLabel(t testing.TB, d *dataset.Dataset, s lattice.AttrSet, opts core.CountOptions) *core.Label {
	t.Helper()
	l, err := core.BuildLabelOptsCtx(nil, d, s, opts)
	if err != nil {
		t.Fatalf("BuildLabelOptsCtx(%v): %v", s, err)
	}
	return l
}

// pcDump flattens a PC into comparable form.
func pcDump(t testing.TB, pc *core.PC) map[string]int {
	t.Helper()
	out := make(map[string]int)
	if err := pc.EachCtx(nil, lattice.MaxAttrs, func(vals []uint16, c int) bool {
		var key strings.Builder
		for _, a := range pc.Attrs().Members() {
			fmt.Fprintf(&key, "%d=%d;", a, vals[a])
		}
		out[key.String()] = c
		return true
	}); err != nil {
		t.Fatalf("EachCtx: %v", err)
	}
	return out
}

// probePatterns samples patterns of varying coverage: full rows, subsets
// of S, and sets reaching outside S (estimation territory).
func probePatterns(t *testing.T, d *dataset.Dataset, n int, seed uint64) []core.Pattern {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xB09))
	var out []core.Pattern
	for i := 0; i < n; i++ {
		r := rng.IntN(d.NumRows())
		assign := map[string]string{}
		for a := 0; a < d.NumAttrs(); a++ {
			if v := d.Value(r, a); v != "" && rng.Float64() < 0.7 {
				assign[d.Attr(a).Name()] = v
			}
		}
		if len(assign) == 0 {
			continue
		}
		p, err := core.NewPattern(d, assign)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// reopenedPattern rebinds p's assignments against the reopened label's
// schema-only dataset (identifiers must line up, but build both ways to
// prove it).
func reopenedPattern(t *testing.T, d, rd *dataset.Dataset, p core.Pattern) core.Pattern {
	t.Helper()
	assign := map[string]string{}
	for _, a := range p.Attrs().Members() {
		assign[d.Attr(a).Name()] = d.Attr(a).Value(p.ValueID(a))
	}
	rp, err := core.NewPattern(rd, assign)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func assertRoundTrip(t *testing.T, d *dataset.Dataset, l *core.Label, seed uint64) {
	t.Helper()
	probes := probePatterns(t, d, 128, seed)
	// Run every probe once pre-save: the label lazily materializes each
	// marginal index the workload needs, Save persists them all, and the
	// reopened label must answer from the restored indexes verbatim — the
	// exactness of dataset-built marginals survives the round trip even on
	// NULL-bearing data.
	for _, p := range probes {
		l.Estimate(p)
	}

	dir := filepath.Join(t.TempDir(), "label-artifact")
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	rl, m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.ReleaseSpill()

	if m.TotalRows != d.NumRows() {
		t.Fatalf("manifest rows %d, want %d", m.TotalRows, d.NumRows())
	}
	if rl.Size() != l.Size() {
		t.Fatalf("reopened size %d, want %d", rl.Size(), l.Size())
	}
	if rl.Attrs() != l.Attrs() {
		t.Fatalf("reopened attrs %v, want %v", rl.Attrs(), l.Attrs())
	}
	if rl.Rows() != d.NumRows() {
		t.Fatalf("reopened Rows() %d, want %d", rl.Rows(), d.NumRows())
	}

	want, got := pcDump(t, l.PC()), pcDump(t, rl.PC())
	if len(want) != len(got) {
		t.Fatalf("reopened PC has %d patterns, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("pattern %q: reopened count %d, want %d", k, got[k], c)
		}
	}

	rd := rl.Dataset()
	for i, p := range probes {
		rp := reopenedPattern(t, d, rd, p)
		wc, wok := l.Count(p)
		gc, gok := rl.Count(rp)
		if wc != gc || wok != gok {
			t.Fatalf("probe %d: Count = (%d, %v), want (%d, %v)", i, gc, gok, wc, wok)
		}
		we, ge := l.Estimate(p), rl.Estimate(rp)
		if we != ge {
			t.Fatalf("probe %d: Estimate = %v, want %v (bit-identical)", i, ge, we)
		}
	}
}

func TestRoundTripDense(t *testing.T) {
	d := genDataset(t, 2000, 4, 6, 0, 0x71)
	l := mustBuildLabel(t, d, lattice.FullSet(3), core.CountOptions{})
	assertRoundTrip(t, d, l, 0x71)
}

func TestRoundTripU64Map(t *testing.T) {
	d := genDataset(t, 2000, 4, 50, 0.05, 0x72)
	// A negative dense limit forces the map kernel even for small spaces.
	l := mustBuildLabel(t, d, lattice.FullSet(4), core.CountOptions{DenseLimit: -1})
	assertRoundTrip(t, d, l, 0x72)
}

func TestRoundTripBytesMap(t *testing.T) {
	d := genDataset(t, 1500, 4, 65000, 0.05, 0x73)
	l := mustBuildLabel(t, d, lattice.FullSet(4), core.CountOptions{})
	assertRoundTrip(t, d, l, 0x73)
}

func TestRoundTripSpilledU64(t *testing.T) {
	d := genDataset(t, 4000, 4, 300, 0, 0x74)
	l := mustBuildLabel(t, d, lattice.FullSet(4), core.CountOptions{
		MemBudget: 16 << 10, SpillDir: t.TempDir(),
	})
	if !l.PC().Spilled() {
		t.Fatal("build did not spill; test shape needs adjusting")
	}
	assertRoundTrip(t, d, l, 0x74)
}

func TestRoundTripSpilledBytes(t *testing.T) {
	d := genDataset(t, 3000, 4, 65000, 0.1, 0x75)
	l := mustBuildLabel(t, d, lattice.FullSet(4), core.CountOptions{
		MemBudget: 32 << 10, SpillDir: t.TempDir(),
	})
	if !l.PC().Spilled() {
		t.Fatal("build did not spill; test shape needs adjusting")
	}
	assertRoundTrip(t, d, l, 0x75)
}

// TestColdMarginalsNullFree pins the PC-summed marginal path: on a
// NULL-free dataset a reopened label whose artifact carries no
// materialized marginals must still answer subset queries bit-identically,
// because summing the PC section over S' ⊆ S loses only NULL-in-S\S' rows
// and there are none.
func TestColdMarginalsNullFree(t *testing.T) {
	d := genDataset(t, 2000, 4, 50, 0, 0x79)
	l := mustBuildLabel(t, d, lattice.FullSet(4), core.CountOptions{DenseLimit: -1})
	dir := filepath.Join(t.TempDir(), "cold")
	// Save before any marginal materializes: the artifact holds only the
	// PC section.
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	rl, m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PCs) != 1 {
		t.Fatalf("artifact carries %d payloads, want just the PC section", len(m.PCs))
	}
	rd := rl.Dataset()
	for i, p := range probePatterns(t, d, 128, 0x7A) {
		rp := reopenedPattern(t, d, rd, p)
		wc, wok := l.Count(p)
		gc, gok := rl.Count(rp)
		if wc != gc || wok != gok {
			t.Fatalf("probe %d: Count = (%d, %v), want (%d, %v)", i, gc, gok, wc, wok)
		}
		if we, ge := l.Estimate(p), rl.Estimate(rp); we != ge {
			t.Fatalf("probe %d: Estimate = %v, want %v", i, ge, we)
		}
	}
}

// TestSaveAdoptionKeepsSourceLabelLive pins the adoption contract: after
// Save relocates a spilled PC's runs, the original in-process label keeps
// answering queries from the artifact's files.
func TestSaveAdoptionKeepsSourceLabelLive(t *testing.T) {
	d := genDataset(t, 4000, 4, 300, 0, 0x76)
	l := mustBuildLabel(t, d, lattice.FullSet(4), core.CountOptions{
		MemBudget: 16 << 10, SpillDir: t.TempDir(),
	})
	if !l.PC().Spilled() {
		t.Fatal("build did not spill")
	}
	before := pcDump(t, l.PC())
	dir := filepath.Join(t.TempDir(), "adopted")
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	after := pcDump(t, l.PC())
	if len(before) != len(after) {
		t.Fatalf("source label lost patterns after adoption: %d -> %d", len(before), len(after))
	}
	for k, c := range before {
		if after[k] != c {
			t.Fatalf("pattern %q: %d -> %d after adoption", k, c, after[k])
		}
	}
	// Releasing the source label must not delete the artifact's runs.
	l.ReleaseSpill()
	if _, _, err := Open(dir); err != nil {
		t.Fatalf("artifact unreadable after source release: %v", err)
	}
}

func TestSaveRefusesNonEmptyDir(t *testing.T) {
	d := genDataset(t, 100, 3, 4, 0, 0x77)
	l := mustBuildLabel(t, d, lattice.FullSet(2), core.CountOptions{})
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Save(l, dir); err == nil {
		t.Fatal("Save accepted a non-empty directory")
	}
}

func TestOpenRejectsUnknownVersion(t *testing.T) {
	d := genDataset(t, 100, 3, 4, 0, 0x78)
	l := mustBuildLabel(t, d, lattice.FullSet(2), core.CountOptions{})
	dir := filepath.Join(t.TempDir(), "vbad")
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), `"format_version": 2`, `"format_version": 99`, 1)
	if mangled == string(data) {
		t.Fatal("version field not found in manifest")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("Open of version-99 artifact: %v, want format-version error", err)
	}
}

func TestOpenMissingManifest(t *testing.T) {
	if _, _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open accepted a directory without a manifest")
	}
}
