package main

import "sort"

// The estimator. A run is cut into pairs of slices, one against the
// tree and one of the reference kernel, and a timed metric is the median,
// over the pairs the host left alone, of the tree slice's value in units
// of its pair's reference slice (metrics.go).
//
// The speed of the host's two vCPUs moves every few seconds by up to a
// factor of two, as when two hardware threads at times share a core and
// at times do not. The slow state halves the kernel's speed and costs the
// trees a fifth to a quarter, so neither the raw numbers nor the ratios
// are the same across the states, and a run's median would depend on how
// much of it the host spent in which. The kernel has no states of its
// own: its speed in a reference slice says which state the host was in.
// So a run keeps the pairs whose reference slice ran at full speed and
// takes the median over those. Only the reference decides which pairs
// count, never the tree's own speed: a change that makes the tree itself
// spend more of its time slow moves the median.

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because
// that is what the acceptance driver computes spreads with. With fewer
// than two values both are the median.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := sorted(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // computed after the clamp, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	s := (q3 - q1) / m
	if s < 0 {
		s = -s
	}
	return s
}

// How a run tells the pairs the host left alone. fullSpeed is the share
// of the run's top reference rate (its 90th percentile: the top without
// the freak slice) a reference slice must reach; a run with fewer than
// minPairs such pairs, which spent nearly all its time on a shared core,
// uses all of them.
const (
	fullSpeed = 0.9
	minPairs  = 8
)

// undisturbed returns the indices of the pairs whose reference slice
// ran at full speed.
func undisturbed(ref []float64) []int {
	s := sorted(ref)
	var top float64
	if len(s) > 0 {
		top = s[(len(s)-1)*9/10]
	}
	var keep []int
	for i, r := range ref {
		if r >= fullSpeed*top {
			keep = append(keep, i)
		}
	}
	if len(keep) < minPairs {
		keep = keep[:0]
		for i := range ref {
			keep = append(keep, i)
		}
	}
	return keep
}

// pairRatios divides each slice's value by its paired reference value.
func pairRatios(work, ref []float64) []float64 {
	out := make([]float64, 0, len(work))
	for i := range work {
		if i < len(ref) && ref[i] != 0 {
			out = append(out, work[i]/ref[i])
		}
	}
	return out
}
