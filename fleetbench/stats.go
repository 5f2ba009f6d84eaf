package main

import (
	"math"
	"sort"
	"strconv"
)

// Summary describes one metric's samples: the median, the quartiles as
// Python's statistics.quantiles(values, n=4) gives them, the sample count,
// and — for latencies — the highest standard percentile that still has at
// least ten samples beyond it.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Tail names the highest percentile with >= 10 samples above it
	// ("p90", "p99", ...); empty when there are too few samples.
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
}

// Summarize folds samples into a Summary. It returns the zero Summary for
// an empty slice.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, q3 := Quartiles(s)
	out := Summary{Median: Median(s), Q1: q1, Q3: q3, N: len(s)}
	if p, ok := TailPercentile(len(s)); ok {
		out.Tail = "p" + formatPercentile(p)
		out.TailValue = Percentile(s, p)
	}
	return out
}

// Scale multiplies every value of s by f > 0.
func (s Summary) Scale(f float64) Summary {
	s.Median, s.Q1, s.Q3, s.TailValue = s.Median*f, s.Q1*f, s.Q3*f, s.TailValue*f
	return s
}

// Median returns the median of sorted.
func Median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Quartiles returns the first and third quartile of sorted with the
// "exclusive" method of Python's statistics.quantiles(data, n=4), so the
// spreads the benchmark prints match the ones computed from its results.
// A single sample is its own quartiles.
func Quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return sorted[0], sorted[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailPercentiles are the candidates TailPercentile picks from.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// TailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples strictly beyond it; ok is false when even the
// median does not.
func TailPercentile(n int) (p float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		c := tailPercentiles[i]
		if n-nearestRank(c, n) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// Percentile returns the nearest-rank p-th percentile of sorted.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[min(max(nearestRank(p, n), 1), n)-1]
}

// nearestRank is ceil(p/100 * n), computed so that float rounding in p/100
// cannot push an exact rank up by one (99.9/100*10000 is 9990.000000000002).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func formatPercentile(p float64) string {
	return strconv.FormatFloat(p, 'f', -1, 64)
}
