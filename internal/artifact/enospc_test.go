package artifact

// Disk exhaustion during artifact writes is a first-class, typed failure:
// every public write entry point — SaveFS, SaveDeltaFS, MergeIntoFS —
// surfaces an injected ENOSPC as spill.ErrNoSpace through its error chain,
// so operators can distinguish "volume full" from corruption, and the
// crash-safety contract (previous generation intact) holds as for any
// other mid-write failure.

import (
	"errors"
	"path/filepath"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
)

func TestSaveENOSPCTypedError(t *testing.T) {
	d := genDataset(t, 1000, 3, 50, 0, 0xE0)
	l := mustBuildLabel(t, d, lattice.FullSet(3), core.CountOptions{})
	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpWrite, 1)
	err := SaveFS(l, filepath.Join(t.TempDir(), "a"), ffs)
	if !errors.Is(err, spill.ErrNoSpace) {
		t.Fatalf("SaveFS on full disk: err = %v, want spill.ErrNoSpace in the chain", err)
	}
}

func TestSaveDeltaENOSPCTypedError(t *testing.T) {
	f := newMergeFixture(t)
	m := f.saveBase(t, filepath.Join(t.TempDir(), "base"))
	dl := f.deltaLabel(t)
	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpCreate, 1)
	err := SaveDeltaFS(dl, filepath.Join(t.TempDir(), "delta"), m, ffs)
	if !errors.Is(err, spill.ErrNoSpace) {
		t.Fatalf("SaveDeltaFS on full disk: err = %v, want spill.ErrNoSpace in the chain", err)
	}
}

func TestMergeENOSPCTypedErrorKeepsBaseServing(t *testing.T) {
	f := newMergeFixture(t)
	dir := filepath.Join(t.TempDir(), "base")
	m := f.saveBase(t, dir)
	dl := f.deltaLabel(t)

	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpWrite, 1)
	_, err := MergeIntoFS(dir, dl, m, ffs)
	if !errors.Is(err, spill.ErrNoSpace) {
		t.Fatalf("MergeIntoFS on full disk: err = %v, want spill.ErrNoSpace in the chain", err)
	}

	// The base generation survives the failed merge untouched.
	_, om, oerr := Open(dir)
	if oerr != nil {
		t.Fatalf("base artifact unreadable after failed merge: %v", oerr)
	}
	if om.Epoch != m.Epoch {
		t.Fatalf("failed merge moved the epoch: %d -> %d", m.Epoch, om.Epoch)
	}
}
