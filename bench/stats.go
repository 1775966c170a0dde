package main

import (
	"fmt"
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values for an
// even count), or 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the nearest-rank p-quantile of an ascending sample.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailCandidates are the percentiles a timing may be reported at, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailPercentile is the percentile rule: the highest candidate percentile
// that still leaves at least ten of n samples beyond it. ok is false when
// even the lowest candidate does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		// Samples beyond the nearest-rank quantile; the epsilon keeps 0.9*100
		// from rounding up to rank 91.
		if n-int(math.Ceil(c*float64(n)-1e-9)) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// timing is how every duration sample is reported: its median, the highest
// percentile the sample size supports, and the sample count.
type timing struct {
	P50     float64
	Tail    float64 // value at TailPct; 0 when the sample is too small for any
	TailPct float64
	N       int
}

// String states the sample count with the numbers, as every timing must.
func (t timing) String() string {
	if t.TailPct == 0 {
		return fmt.Sprintf("p50=%.3f (n=%d, too few for a tail)", t.P50, t.N)
	}
	return fmt.Sprintf("p50=%.3f p%g=%.3f (n=%d)", t.P50, 100*t.TailPct, t.Tail, t.N)
}

func summarize(ms []float64) timing {
	s := sortedCopy(ms)
	t := timing{P50: median(s), N: len(s)}
	if p, ok := tailPercentile(len(s)); ok {
		t.Tail, t.TailPct = quantile(s, p), p
	}
	return t
}

// p90 is the fixed-name tail the per-layer list carries: the 90th percentile
// when the percentile rule allows it (at least 100 samples), else 0.
func p90(ms []float64) float64 {
	if len(ms) < 100 {
		return 0
	}
	return quantile(sortedCopy(ms), 0.90)
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance rule for run-to-run
// spread is written in. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of v as a share of its median; 0 when v
// has fewer than two values or a zero median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// timed stores a duration sample's median under name and prints the sample
// the way every timing is reported.
func timed(m map[string]float64, name string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	t := summarize(ms)
	m[name] = t.P50
	fmt.Printf("    %-36s %s\n", name, t)
}

// rateBlock is the number of consecutive rounds one throughput sample spans.
const rateBlock = 10

// blockRate is the throughput a closed loop sustains, in rounds per second:
// the rate over each block of rateBlock consecutive rounds, median over the
// blocks. Unlike the median round it pays for every slow round inside a
// block; unlike the mean rate of the whole run it does not move when the host
// stalls for a part of the run. A trailing partial block is dropped unless it
// is the only one.
func blockRate(wallsMS []float64) float64 {
	var rates []float64
	for lo := 0; lo < len(wallsMS); lo += rateBlock {
		hi := min(lo+rateBlock, len(wallsMS))
		if hi-lo < rateBlock && lo > 0 {
			break
		}
		total := 0.0
		for _, w := range wallsMS[lo:hi] {
			total += w
		}
		rates = append(rates, float64(hi-lo)/(total/1e3))
	}
	return median(rates)
}
