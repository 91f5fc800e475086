package main

import "sort"

// median returns the middle value (mean of the two middle values for an
// even count); zero for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail is the highest percentile that still has at least tailBeyond
// samples above it: the value at rank n-tailBeyond-1 of the sorted
// samples, reported as percentile 100*(n-tailBeyond)/n. Fewer than
// tailBeyond+1 samples have no tail (ok is false).
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n < tailBeyond+1 {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or zero when b is zero (a layer the workload never
// exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
