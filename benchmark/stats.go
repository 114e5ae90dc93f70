package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile of
// values by the "exclusive" method of Python's statistics.quantiles(n=4), so
// spreads computed here match the ones computed from the printed results.
// A single value is its own quartiles; no values give NaN.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return values[0], values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k/4 of the way through n+1 slots, interpolated.
		m := float64(n+1) * float64(k) / 4
		j := int(math.Floor(m))
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := m - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), median(s), at(3)
}

// median returns the median of values (NaN when empty).
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-th percentile (0..100) of values with linear
// interpolation between closest ranks (NaN when empty).
func percentile(values []float64, q float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of values (0 when empty).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
