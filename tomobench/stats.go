package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is the fewest samples a timing needs above its tail
// percentile before that percentile is reported as measured.
const minBeyondTail = 10

// Summary is a timing distribution reduced to its median and one named
// tail percentile, with the sample counts that back them.
type Summary struct {
	N      int     // samples
	P50    float64 // median
	TailQ  float64 // tail quantile in (0,1), e.g. 0.99
	Tail   float64 // value at TailQ
	Beyond int     // samples strictly above the tail's rank
}

// Summarize returns the median and the tailQ percentile of xs (which it
// sorts in place), using the nearest-rank definition. It fails when
// fewer than minBeyondTail samples lie beyond the tail, so a tail is
// never reported from a handful of observations.
func Summarize(xs []float64, tailQ float64) (Summary, error) {
	s := Summary{N: len(xs), TailQ: tailQ}
	if tailQ <= 0.5 || tailQ >= 1 {
		return s, fmt.Errorf("tail quantile %v outside (0.5,1)", tailQ)
	}
	if len(xs) == 0 {
		return s, fmt.Errorf("no samples")
	}
	sort.Float64s(xs)
	s.P50 = xs[rank(len(xs), 0.5)]
	r := rank(len(xs), tailQ)
	s.Tail = xs[r]
	s.Beyond = len(xs) - 1 - r
	if s.Beyond < minBeyondTail {
		return s, fmt.Errorf("p%s has %d samples beyond it (of %d); need %d", pctName(tailQ), s.Beyond, len(xs), minBeyondTail)
	}
	return s, nil
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// pctName spells a quantile as a percentile label: 0.99 -> "99".
func pctName(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}

// median returns the median of xs (sorting a copy); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
