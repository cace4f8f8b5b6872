package spill

// FuzzScanRun hardens spill frame decoding: a run file is disk bytes the
// reader does not control (a label artifact's adopted runs are reopened by
// another process), so every read path over a mutated run must return
// either a clean result or a typed corruption error — never panic, never
// allocate by a corrupt length, never hand a record from an unverified
// frame to the caller.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

const fuzzRecWidth = 8

// validRun returns the bytes of one framed run file written by the real
// writer: a few flushes' worth of uint64 records, so it holds several
// frames.
func validRun(f *testing.F) []byte {
	f.Helper()
	w, err := NewWriter(Config{RecWidth: fuzzRecWidth, Runs: 1, Dir: f.TempDir(), BufBytes: 64})
	if err != nil {
		f.Fatal(err)
	}
	defer w.Cleanup()
	sh := w.Shard()
	for k := uint64(0); k < 40; k++ {
		sh.AddU64(k % 13)
	}
	if err := sh.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(runPath(w.Dir(), 0))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// frame encodes one frame header declaring plen payload bytes with the
// checksum of payload.
func frame(plen int, payload []byte) []byte {
	out := make([]byte, frameHdrLen, frameHdrLen+len(payload))
	binary.LittleEndian.PutUint32(out[:4], uint32(plen))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

func FuzzScanRun(f *testing.F) {
	valid := validRun(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:frameHdrLen-3])                            // truncated header
	f.Add(append(append([]byte{}, valid...), valid[:5]...)) // trailing partial header
	f.Add(valid[:len(valid)-1])                             // truncated payload
	flipped := append([]byte{}, valid...)
	flipped[frameHdrLen] ^= 0xFF // checksum mismatch in the first frame
	f.Add(flipped)
	f.Add(frame(maxFrameBytes+fuzzRecWidth, make([]byte, 64))) // frame longer than maxFrameBytes
	f.Add(frame(12, make([]byte, 12)))                         // payload not a whole record

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "run-0000"), data, 0o600); err != nil {
			t.Fatal(err)
		}
		w, err := Open(dir, fuzzRecWidth, 1, true, nil, nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		defer w.Cleanup()
		records := int64(0)
		err = w.ScanRun(0, func(rec []byte) bool {
			if len(rec) != fuzzRecWidth {
				t.Fatalf("ScanRun handed a %d-byte record", len(rec))
			}
			records++
			return true
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ScanRun: untyped error %v", err)
		}
		if err == nil && records != w.Stats().RecordsSpilled {
			t.Fatalf("ScanRun read %d records, Open validated %d", records, w.Stats().RecordsSpilled)
		}
		size, within, cerr := w.CountRunsU64Ctx(nil, -1, 1, nil)
		if cerr != nil && !errors.Is(cerr, ErrCorrupt) {
			t.Fatalf("CountRunsU64Ctx: untyped error %v", cerr)
		}
		if (cerr == nil) != (err == nil) {
			t.Fatalf("ScanRun err %v but CountRunsU64Ctx err %v", err, cerr)
		}
		if cerr == nil && (!within || int64(size) > records) {
			t.Fatalf("CountRunsU64Ctx = (%d, %v) over %d records", size, within, records)
		}
	})
}
