package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
)

// Input sizes: the paper's §IV-A scales.
const (
	creditCardRows = datagen.CreditCardRows // 30,000 rows × 24 attributes
	blueNileRows   = datagen.BlueNileRows   // 116,300 rows × 7 attributes
)

// serveLabelAttrs is the 12-attribute set of the serve-mixed label: wide
// enough that its PC section is a map-kernel index that spills under
// spillBudget.
var serveLabelAttrs = []string{
	"LIMIT_BAL", "SEX", "EDUCATION", "MARRIAGE", "AGE",
	"PAY_0", "PAY_2", "PAY_3", "BILL_AMT1", "BILL_AMT2", "PAY_AMT1", "PAY_AMT2",
}

// buildInput is what one workload's build phase parses: CSV bytes and,
// for serve-mixed, the fixed label attribute set (nil means search).
type buildInput struct {
	csv   []byte
	attrs []string
}

// genBuildInput has a child process make the workload's build CSV from
// the seed, so that the generator's memory does not count in this
// process's peak_rss_mb. The program only ever sees these bytes.
func genBuildInput(cfg config) (*buildInput, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--gen-input", "--workload", cfg.w.name, "--seed", strconv.FormatUint(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	csv, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("input generator: %w", err)
	}
	return &buildInput{csv: csv, attrs: cfg.w.labelAttrs}, nil
}

// buildCSV makes the workload's build CSV from the seed; the child
// process genBuildInput starts runs it.
func buildCSV(w *workload, seed uint64) ([]byte, error) {
	switch w.name {
	case "build-wide":
		d, err := datagen.CreditCard(creditCardRows, seed)
		if err != nil {
			return nil, err
		}
		return rawCreditCardCSV(d, seed), nil
	case "build-tall":
		d, err := datagen.BlueNile(blueNileRows, seed)
		if err != nil {
			return nil, err
		}
		return csvBytes(d), nil
	case "serve-mixed":
		d, err := datagen.CreditCard(creditCardRows, seed)
		if err != nil {
			return nil, err
		}
		return csvBytes(d), nil
	}
	return nil, fmt.Errorf("unknown workload %q", w.name)
}

// csvBytes renders a dataset as CSV.
func csvBytes(d *dataset.Dataset) []byte {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// rawCreditCardCSV turns the bucketized CreditCard emulator back into a
// raw-numeric table: every bucket label "[lo,hi)" (or "[lo,hi]") becomes a
// seeded whole number drawn inside that bucket, so the build pipeline has
// real numeric columns to bucketize again. Categorical values pass through.
func rawCreditCardCSV(d *dataset.Dataset, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x5EED_0F_C5F))
	var buf bytes.Buffer
	buf.WriteString(strings.Join(d.AttrNames(), ","))
	buf.WriteByte('\n')
	parsed := make([][]bucketRange, d.NumAttrs())
	for a := range parsed {
		dom := d.Attr(a).Domain()
		parsed[a] = make([]bucketRange, len(dom))
		for i, v := range dom {
			parsed[a][i] = parseBucket(v)
		}
	}
	for r := 0; r < d.NumRows(); r++ {
		for a := 0; a < d.NumAttrs(); a++ {
			if a > 0 {
				buf.WriteByte(',')
			}
			id := d.ID(r, a)
			if id == dataset.Null {
				continue
			}
			b := parsed[a][id-1]
			if !b.ok {
				buf.WriteString(d.Value(r, a))
				continue
			}
			buf.WriteString(strconv.FormatInt(b.lo+rng.Int64N(b.hi-b.lo+1), 10))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// bucketRange is the inclusive range of whole numbers a bucket covers.
type bucketRange struct {
	lo, hi int64
	ok     bool // false for a categorical value
}

// parseBucket reads a bucket label "[lo,hi)" or "[lo,hi]" as the range it
// covers.
func parseBucket(v string) (b bucketRange) {
	if len(v) < 5 || v[0] != '[' || (v[len(v)-1] != ')' && v[len(v)-1] != ']') {
		return b
	}
	lo, hi, found := strings.Cut(v[1:len(v)-1], ",")
	if !found {
		return b
	}
	l, err1 := strconv.ParseFloat(lo, 64)
	h, err2 := strconv.ParseFloat(hi, 64)
	if err1 != nil || err2 != nil {
		return b
	}
	b.lo, b.hi = int64(l), int64(h)
	if v[len(v)-1] == ')' && b.hi > b.lo {
		b.hi-- // half-open: hi itself belongs to the next bucket
	}
	b.ok = true
	return b
}
