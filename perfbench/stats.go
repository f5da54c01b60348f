package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. Reporting only these keeps tails from different runs comparable.
var tailLadder = []float64{99, 90, 75}

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const minBeyond = 10

// sample is a set of timings, kept in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle value, or the mean of the two middle values; NaN for
// an empty sample.
func median(s []float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := sorted(s)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func mean(s []float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// percentile is the nearest-rank percentile: the smallest value with at
// least p percent of the sample at or below it.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := sorted(s)
	return v[nearestRank(len(v), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile in n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail picks the highest percentile of tailLadder that leaves at least
// minBeyond samples above its rank, and returns it with its value. ok is
// false when the sample is too small for any of them.
func tail(s []float64) (p, value float64, ok bool) {
	for _, p := range tailLadder {
		if len(s)-nearestRank(len(s), p) >= minBeyond {
			return p, percentile(s, p), true
		}
	}
	return 0, math.NaN(), false
}
