package main

import "math/bits"

// hist is the benchmark's own log-linear latency histogram (not
// internal/hist). Values below 64 ns get exact buckets; above that each
// power of two is split into 32 linear buckets, so a bucket is at most
// 1/32 of its lower bound wide and the midpoint it reports is within
// 1.6 % of any value it holds. Recording allocates nothing.
type hist struct {
	n uint64
	b [histBuckets]uint64
}

const (
	histExact   = 64
	histSub     = 32
	histMaxExp  = 36 // values up to 2^42 ns (over an hour); larger clamp
	histBuckets = histExact + histMaxExp*histSub
)

func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	e := bits.Len64(v) - 6 // v>>e is in [32, 64)
	if e > histMaxExp {
		return histBuckets - 1
	}
	return histExact + (e-1)*histSub + int(v>>uint(e)) - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histExact {
		return float64(i)
	}
	e := uint((i-histExact)/histSub + 1)
	m := uint64((i-histExact)%histSub + histSub)
	return float64(m<<e) + float64(uint64(1)<<e)/2
}

func (h *hist) record(v uint64) {
	h.b[histIndex(v)]++
	h.n++
}

func (h *hist) reset() { *h = hist{} }

func (h *hist) merge(o *hist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile returns the value at rank ceil(q*n) (nearest-rank), 0 when
// empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.b {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}
