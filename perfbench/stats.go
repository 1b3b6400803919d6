package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1,000 samples.
const minTail = 10

// reportable are the percentiles a timing summary may report, highest
// first.
var reportable = []float64{99.9, 99, 95, 90, 75}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of xs with the
// same "exclusive" interpolation as Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's steadiness gate is defined by. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// supportedPercentile is the highest reportable percentile with at least
// minTail samples beyond it among n samples; 0 when even p75 is not
// supported, in which case a summary carries the median alone.
func supportedPercentile(n int) float64 {
	for _, p := range reportable {
		// The tolerance absorbs float error in 100-p (99.9 is inexact).
		if float64(n)*(100-p)/100 >= minTail-1e-9 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Summary is one timing as the benchmark reports it: the median and
// quartiles, the sample count, and the highest percentile the count
// supports.
type Summary struct {
	Unit       string  `json:"unit"`
	Median     float64 `json:"median"`
	Q1         float64 `json:"q1"`
	Q3         float64 `json:"q3"`
	N          int     `json:"n"`
	Percentile float64 `json:"percentile,omitempty"`
	Tail       float64 `json:"tail,omitempty"`
}

// summarize summarizes xs in the given unit.
func summarize(xs []float64, unit string) Summary {
	if len(xs) == 0 {
		return Summary{Unit: unit}
	}
	s := Summary{Unit: unit, Median: median(xs), N: len(xs)}
	s.Q1, _, s.Q3 = quartiles(xs)
	if p := supportedPercentile(len(xs)); p > 0 {
		s.Percentile = p
		s.Tail = percentile(xs, p)
	}
	return s
}

// durations converts durations to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
