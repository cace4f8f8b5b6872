package datagen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"pcbl/internal/dataset"
)

// CreditCardRows is the row count of the UCI "default of credit card
// clients" dataset the paper evaluates on.
const CreditCardRows = 30000

// CreditCardBins is the paper's bucketization width: "We bucketize each
// numerical attribute into 5 bins" (§IV-A).
const CreditCardBins = 5

// CreditCard generates the Credit Card emulator: 24 attributes matching the
// UCI schema (demographics, credit limit, six monthly repayment statuses,
// six monthly bill amounts, six monthly payment amounts, default flag), with
// every numeric attribute bucketized into CreditCardBins equal-frequency
// bins as in the paper's preparation. The monthly columns are serially
// correlated — a client's repayment status and bill this month strongly
// predict next month's — giving the label search the correlated attribute
// groups the paper's results rely on.
func CreditCard(rows int, seed uint64) (*dataset.Dataset, error) {
	raw, err := CreditCardRaw(rows, seed)
	if err != nil {
		return nil, err
	}
	return dataset.BucketizeAllNumeric(raw, dataset.BucketizeOptions{
		Bins:     CreditCardBins,
		Strategy: dataset.EqualFrequency,
	})
}

// CreditCardRaw generates the pre-bucketization table with raw numeric
// columns, mirroring what the UCI CSV looks like after dropping the ID.
func CreditCardRaw(rows int, seed uint64) (*dataset.Dataset, error) {
	names := []string{
		"LIMIT_BAL", "SEX", "EDUCATION", "MARRIAGE", "AGE",
		"PAY_0", "PAY_2", "PAY_3", "PAY_4", "PAY_5", "PAY_6",
		"BILL_AMT1", "BILL_AMT2", "BILL_AMT3", "BILL_AMT4", "BILL_AMT5", "BILL_AMT6",
		"PAY_AMT1", "PAY_AMT2", "PAY_AMT3", "PAY_AMT4", "PAY_AMT5", "PAY_AMT6",
		"default",
	}
	b := dataset.NewBuilder("creditcard", names...)
	rng := rand.New(rand.NewPCG(seed, 0xC0FFEE123456789D))
	row := make([]string, len(names))
	for r := 0; r < rows; r++ {
		// Credit limit: 10k–500k NT$, log-skewed, rounded to 10k.
		limit := math.Exp(rng.NormFloat64()*0.7+11.5) / 10000
		limit = math.Max(1, math.Min(50, math.Round(limit)))
		limitBal := limit * 10000
		row[0] = fmt.Sprintf("%.0f", limitBal)

		sex := "female"
		if rng.Float64() < 0.40 {
			sex = "male"
		}
		row[1] = sex

		eduDraw := rng.Float64()
		switch {
		case eduDraw < 0.47:
			row[2] = "university"
		case eduDraw < 0.82:
			row[2] = "graduate school"
		case eduDraw < 0.985:
			row[2] = "high school"
		default:
			row[2] = "others"
		}

		marDraw := rng.Float64()
		switch {
		case marDraw < 0.532:
			row[3] = "single"
		case marDraw < 0.987:
			row[3] = "married"
		default:
			row[3] = "others"
		}

		// Age 21–79, right-skewed; correlated with marriage.
		age := 21 + int(math.Abs(rng.NormFloat64())*11)
		if row[3] == "married" {
			age += 6
		}
		if age > 79 {
			age = 79
		}
		row[4] = fmt.Sprint(age)

		// Repayment statuses: a Markov chain over {-2,-1,0,1,…,8}.
		// PAY_6 is the oldest month; the CSV orders newest first.
		pays := make([]int, 6)
		pays[5] = initialPayStatus(rng)
		for m := 4; m >= 0; m-- {
			pays[m] = nextPayStatus(rng, pays[m+1])
		}
		for m := 0; m < 6; m++ {
			row[5+m] = fmt.Sprint(pays[m])
		}

		// Bill amounts: random walk anchored to the credit limit.
		bills := make([]float64, 6)
		util := 0.02 + 0.55*rng.Float64() // starting utilization
		bills[5] = limitBal * util
		for m := 4; m >= 0; m-- {
			drift := 1 + rng.NormFloat64()*0.18
			if drift < 0.2 {
				drift = 0.2
			}
			bills[m] = bills[m+1] * drift
			if bills[m] > limitBal*1.2 {
				bills[m] = limitBal * 1.2
			}
		}
		for m := 0; m < 6; m++ {
			row[11+m] = fmt.Sprintf("%.0f", math.Max(0, bills[m]))
		}

		// Payment amounts: fraction of the bill, higher when the status
		// says "paid duly".
		for m := 0; m < 6; m++ {
			frac := 0.04 + 0.06*rng.Float64()
			if pays[m] == -1 {
				frac = 1.0
			} else if pays[m] == -2 {
				frac = 0
			} else if pays[m] > 0 {
				frac = 0.01 * rng.Float64()
			}
			row[17+m] = fmt.Sprintf("%.0f", bills[m]*frac)
		}

		// Default next month: driven by the recent repayment statuses.
		pDefault := 0.08
		if pays[0] >= 2 {
			pDefault = 0.65
		} else if pays[0] == 1 {
			pDefault = 0.33
		} else if pays[1] >= 2 {
			pDefault = 0.40
		}
		if rng.Float64() < pDefault {
			row[23] = "yes"
		} else {
			row[23] = "no"
		}

		b.AppendStrings(row...)
	}
	return b.Build()
}

// initialPayStatus draws the oldest month's repayment status.
func initialPayStatus(rng *rand.Rand) int {
	x := rng.Float64()
	switch {
	case x < 0.18:
		return -2 // no consumption
	case x < 0.38:
		return -1 // paid in full
	case x < 0.85:
		return 0 // revolving credit
	case x < 0.93:
		return 1
	case x < 0.97:
		return 2
	case x < 0.985:
		return 3
	default:
		return 4
	}
}

// nextPayStatus advances the repayment-status Markov chain by one month
// (toward the present): delinquency tends to persist or deepen, good
// standing tends to persist.
func nextPayStatus(rng *rand.Rand, prev int) int {
	x := rng.Float64()
	switch {
	case prev >= 1: // already delinquent
		switch {
		case x < 0.45:
			if prev < 8 {
				return prev + 1 // delinquency deepens
			}
			return 8
		case x < 0.70:
			return prev // unchanged
		case x < 0.90:
			return 0 // back to revolving
		default:
			return -1 // paid off
		}
	case prev == 0: // revolving
		switch {
		case x < 0.72:
			return 0
		case x < 0.84:
			return -1
		case x < 0.88:
			return -2
		default:
			return 1
		}
	default: // -1 or -2: in good standing
		switch {
		case x < 0.55:
			return prev
		case x < 0.80:
			return 0
		case x < 0.92:
			return -1
		default:
			return 1
		}
	}
}
