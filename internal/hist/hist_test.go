package hist

import (
	"math"
	"sort"
	"testing"
)

// TestBucketRoundTrip checks that every bucket's lower bound maps back
// to that bucket, and that bucket assignment is monotone across every
// bucket boundary (v-1 lands strictly below v's bucket at each Low).
func TestBucketRoundTrip(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		lo := bucketLow(i)
		if got := bucket(lo); got != i {
			t.Fatalf("bucket(bucketLow(%d)) = %d, want %d (low %d)", i, got, i, lo)
		}
		if lo > 0 {
			if got := bucket(lo - 1); got != i-1 {
				t.Fatalf("bucket(%d) = %d, want %d (boundary below bucket %d)",
					lo-1, got, i-1, i)
			}
		}
		if mid := bucketMid(i); bucket(mid) != i {
			t.Fatalf("bucketMid(%d) = %d lands in bucket %d", i, mid, bucket(mid))
		}
	}
	// The extremes of the domain must be representable.
	if got := bucket(0); got != 0 {
		t.Fatalf("bucket(0) = %d", got)
	}
	if got := bucket(math.MaxUint64); got != numBuckets-1 {
		t.Fatalf("bucket(MaxUint64) = %d, want %d", got, numBuckets-1)
	}
}

// TestBucketRelativeError checks the quantization guarantee: a bucket's
// width never exceeds 2^-subBits of its lower bound (for values above
// the exact range).
func TestBucketRelativeError(t *testing.T) {
	for i := subCount; i < numBuckets-1; i++ {
		lo, hi := bucketLow(i), bucketLow(i+1)
		if width := hi - lo; float64(width) > float64(lo)/float64(subCount)+1 {
			t.Fatalf("bucket %d: width %d exceeds %d/%d", i, width, lo, subCount)
		}
	}
}

// lcg is a tiny deterministic PRNG for reference distributions.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// TestQuantileAccuracy records deterministic samples spanning several
// orders of magnitude and compares every interesting quantile against
// the exact order statistic from a sorted reference copy. The histogram
// answer must be within one bucket width (~2^-subBits relative) of the
// truth.
func TestQuantileAccuracy(t *testing.T) {
	var h Hist
	var r lcg = 12345
	const n = 200000
	ref := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		// Latency-shaped: mostly small values, a heavy tail up to ~2^40.
		shift := r.next() % 34
		v := 100 + r.next()%(uint64(1)<<(6+shift))
		ref = append(ref, v)
		h.Record(v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })

	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if h.Max() != ref[n-1] {
		t.Fatalf("Max = %d, want %d (exact)", h.Max(), ref[n-1])
	}
	var sum uint64
	for _, v := range ref {
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %d, want %d (exact)", h.Sum(), sum)
	}

	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999} {
		rank := int(q*float64(n)+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		want := ref[rank]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		if relErr > 1.0/subCount {
			t.Errorf("Quantile(%v) = %d, reference %d (rel err %.4f > %.4f)",
				q, got, want, relErr, 1.0/subCount)
		}
	}
	if got := h.Quantile(1); got != ref[n-1] {
		t.Fatalf("Quantile(1) = %d, want exact max %d", got, ref[n-1])
	}
}

// TestQuantileEdgeCases covers empty and single-sample histograms.
func TestQuantileEdgeCases(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("single-sample Quantile(%v) = %d, want 7", q, got)
		}
	}
	if h.Sum() != 7 {
		t.Fatalf("Sum = %v, want 7", h.Sum())
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("Reset did not empty the histogram")
	}
}

// TestMerge checks that merging per-thread histograms is exact: the
// merge of disjoint recordings equals recording everything into one.
func TestMerge(t *testing.T) {
	var a, b, all Hist
	var r lcg = 999
	for i := 0; i < 50000; i++ {
		v := r.next() % (1 << 30)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	var m Hist
	m.Merge(&a)
	m.Merge(&b)
	if m.Count() != all.Count() || m.Sum() != all.Sum() || m.Max() != all.Max() {
		t.Fatalf("merge totals (%d,%d,%d) != direct (%d,%d,%d)",
			m.Count(), m.Sum(), m.Max(), all.Count(), all.Sum(), all.Max())
	}
	if m.counts != all.counts {
		t.Fatal("merged bucket array differs from direct recording")
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if m.Quantile(q) != all.Quantile(q) {
			t.Fatalf("Quantile(%v): merged %d != direct %d", q, m.Quantile(q), all.Quantile(q))
		}
	}
}

// TestBucketsExport checks the cumulative bucket export covers every
// sample exactly once with consistent ranges.
func TestBucketsExport(t *testing.T) {
	var h Hist
	var r lcg = 4242
	const n = 10000
	for i := 0; i < n; i++ {
		h.Record(r.next() % (1 << 20))
	}
	var total uint64
	cum := h.Cumulative()
	for i, b := range cum {
		if i > 0 && b.Le <= cum[i-1].Le {
			t.Fatalf("bucket le=%d does not lie above the previous one", b.Le)
		}
		if b.Count <= total {
			t.Fatal("export contains an empty bucket")
		}
		total = b.Count
	}
	if total != n {
		t.Fatalf("exported counts reach %d, want %d", total, n)
	}
}

// TestRecordZeroAlloc is the package-local allocation gate: Record,
// Merge, and Quantile must not allocate (the repo-level gate in
// alloc_gate_test.go checks the same through the workload capture
// path).
func TestRecordZeroAlloc(t *testing.T) {
	var h, o Hist
	var r lcg = 1
	if avg := testing.AllocsPerRun(1000, func() {
		h.Record(r.next() % (1 << 22))
	}); avg != 0 {
		t.Fatalf("Record allocates %v per op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		o.Merge(&h)
	}); avg != 0 {
		t.Fatalf("Merge allocates %v per op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = h.Quantile(0.99)
	}); avg != 0 {
		t.Fatalf("Quantile allocates %v per op", avg)
	}
}

// TestCumulativeProperty is the property test for the Prometheus-style
// cumulative export: against random sample sets it cross-checks
// Cumulative against the bucket counts (same boundaries, running
// totals) and against Quantile (the value Quantile(q) returns must be
// covered by the first cumulative bucket whose count reaches rank(q)).
func TestCumulativeProperty(t *testing.T) {
	rng := lcg(42)
	for trial := 0; trial < 20; trial++ {
		var h Hist
		n := int(rng.next()%5000) + 1
		for i := 0; i < n; i++ {
			// Mix magnitudes: some tiny exact-range values, some huge.
			v := rng.next() >> (rng.next() % 60)
			h.Record(v)
		}

		cum := h.Cumulative()
		var running uint64
		i := -1
		for b, c := range h.counts {
			if c == 0 {
				continue
			}
			if i++; i == len(cum) {
				t.Fatalf("trial %d: %d cumulative buckets, more are non-empty", trial, len(cum))
			}
			running += c
			// Same boundary: le is the inclusive form of the half-open
			// [Low, High) bucket, exact for integer samples.
			wantLe := uint64(math.MaxUint64)
			if b+1 < numBuckets {
				wantLe = bucketLow(b+1) - 1
			}
			if cum[i].Le != wantLe {
				t.Fatalf("trial %d bucket %d: le %d, want %d", trial, i, cum[i].Le, wantLe)
			}
			if cum[i].Count != running {
				t.Fatalf("trial %d bucket %d: cumulative %d, want %d", trial, i, cum[i].Count, running)
			}
			if i > 0 && cum[i].Le <= cum[i-1].Le {
				t.Fatalf("trial %d: le not strictly increasing at %d", trial, i)
			}
		}
		if i != len(cum)-1 || cum[i].Count != h.Count() {
			t.Fatalf("trial %d: last cumulative %d != count %d", trial, cum[len(cum)-1].Count, h.Count())
		}

		// Quantile cross-check: the order statistic of rank ceil(q*n)
		// must lie in the first cumulative bucket reaching that rank,
		// and Quantile answers with a value from that same bucket (its
		// midpoint, or the exact max for the top rank).
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
			rank := uint64(q*float64(h.Count()) + 0.5)
			if rank < 1 {
				rank = 1
			}
			if rank >= h.Count() {
				continue // Quantile returns the exact max here
			}
			idx := sort.Search(len(cum), func(i int) bool { return cum[i].Count >= rank })
			if idx == len(cum) {
				t.Fatalf("trial %d q=%v: rank %d beyond cumulative total", trial, q, rank)
			}
			v := h.Quantile(q)
			lo := uint64(0)
			if idx > 0 {
				lo = cum[idx-1].Le + 1
			}
			if v < lo || v > cum[idx].Le {
				t.Fatalf("trial %d q=%v: Quantile=%d outside cumulative bucket [%d, %d]",
					trial, q, v, lo, cum[idx].Le)
			}
		}
	}
}

// TestAtomicMatchesHist records the same deterministic stream into a
// plain Hist and an Atomic and requires identical snapshots, then
// hammers one Atomic from several goroutines and checks the merged
// totals are exact.
func TestAtomicMatchesHist(t *testing.T) {
	rng := lcg(7)
	var h Hist
	var a Atomic
	for i := 0; i < 10000; i++ {
		v := rng.next() >> (rng.next() % 60)
		h.Record(v)
		a.Record(v)
	}
	var snap Hist
	a.Snapshot(&snap)
	if snap != h {
		t.Fatal("atomic snapshot differs from plain histogram on identical input")
	}

	var b Atomic
	const workers, per = 8, 5000
	done := make(chan uint64, workers)
	for w := 0; w < workers; w++ {
		go func(seed uint64) {
			r := lcg(seed)
			var sum uint64
			for i := 0; i < per; i++ {
				v := r.next() % 1_000_000
				sum += v
				b.Record(v)
			}
			done <- sum
		}(uint64(w + 1))
	}
	var wantSum uint64
	for w := 0; w < workers; w++ {
		wantSum += <-done
	}
	var merged Hist
	b.Snapshot(&merged)
	if merged.Count() != workers*per {
		t.Fatalf("concurrent count %d, want %d", merged.Count(), workers*per)
	}
	if merged.Sum() != wantSum {
		t.Fatalf("concurrent sum %d, want %d", merged.Sum(), wantSum)
	}
}
