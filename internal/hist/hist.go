// Package hist provides a fixed-size, allocation-free latency histogram
// in the HDR style: values bucket by their highest set bit, with each
// power-of-two range subdivided into 2^subBits linear sub-buckets, so
// the relative quantization error is bounded by 2^-subBits (~3%) across
// the full uint64 range. Record is a single array increment — safe for
// per-operation capture on a benchmark hot path — and histograms merge
// by bucket-wise addition, so each thread records into a private Hist
// and the driver merges once at the end.
package hist

import "math/bits"

// subBits is the per-power-of-two subdivision: 2^subBits sub-buckets
// per binary order of magnitude, bounding relative error by 2^-subBits.
const subBits = 5

// subCount is the number of sub-buckets per power of two.
const subCount = 1 << subBits

// numBuckets spans the full uint64 range: values below subCount map
// exactly (one bucket per value), every higher power of two contributes
// subCount buckets.
const numBuckets = (64-subBits)<<subBits + subCount

// Hist is a histogram of uint64 samples (latencies in nanoseconds, by
// convention). The zero value is an empty histogram ready for use. A
// Hist is not synchronized: one writer at a time (the per-thread
// capture discipline), with Merge/quantile reads after the writers
// stop.
type Hist struct {
	counts [numBuckets]uint64
	count  uint64
	sum    uint64
	max    uint64
}

// bucket maps a value to its bucket index: the identity below subCount,
// then (highest set bit, next subBits bits) above — monotone, so bucket
// order is value order.
func bucket(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1 // MSB position, >= subBits
	sub := (v >> (exp - subBits)) & (subCount - 1)
	return int(exp-subBits+1)<<subBits | int(sub)
}

// bucketLow returns the smallest value mapping to bucket i (the inverse
// of bucket at bucket boundaries).
func bucketLow(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	exp := uint(i>>subBits) + subBits - 1
	sub := uint64(i & (subCount - 1))
	return 1<<exp | sub<<(exp-subBits)
}

// bucketMid returns the representative (midpoint) value of bucket i.
func bucketMid(i int) uint64 {
	lo := bucketLow(i)
	if i < subCount {
		return lo
	}
	width := uint64(1) << (uint(i>>subBits) - 1) // 2^(exp-subBits)
	return lo + width/2
}

// Record adds one sample. It never allocates.
func (h *Hist) Record(v uint64) {
	h.counts[bucket(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge adds every sample of o into h (bucket-wise; exact counts, and
// the merged maximum is the larger of the two). It never allocates.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset empties the histogram.
func (h *Hist) Reset() {
	*h = Hist{}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Max returns the largest recorded sample (exact, not quantized), or 0
// when empty.
func (h *Hist) Max() uint64 { return h.max }

// Sum returns the sum of all recorded samples.
func (h *Hist) Sum() uint64 { return h.sum }

// Quantile returns a representative value at quantile q in [0, 1]: the
// midpoint of the bucket holding the sample of rank ceil(q*count), so
// the result is within the bucket's ~2^-subBits relative width of the
// true order statistic. Quantile(1) returns the exact maximum. Returns
// 0 when the histogram is empty.
func (h *Hist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	rank := uint64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank >= h.count {
		return h.max
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return h.max
}

// CumBucket is one step of a cumulative (Prometheus `le`-style) bucket
// export: Count samples were recorded with value <= Le.
type CumBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Cumulative returns the histogram as cumulative `le` buckets in the
// Prometheus exposition sense: one entry per non-empty internal bucket,
// in ascending Le order, where Count is the running total of samples
// with value <= Le. Samples are integers, so the inclusive upper bound
// of the half-open internal bucket [Low, High) is exactly High-1 — the
// export loses no precision. The final entry's
// Count equals Count() (the `+Inf` bucket is implied). Allocates;
// intended for scrape-time exposition, not the capture path.
func (h *Hist) Cumulative() []CumBucket {
	var out []CumBucket
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		le := uint64(1)<<63 - 1 + uint64(1)<<63 // max uint64 for the last bucket
		if i+1 < numBuckets {
			le = bucketLow(i+1) - 1
		}
		out = append(out, CumBucket{Le: le, Count: cum})
	}
	return out
}
