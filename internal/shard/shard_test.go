package shard

import (
	"strings"
	"sync"
	"testing"

	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
)

func newShardedBST(t *testing.T, shards int, span uint64) *Dict {
	t.Helper()
	d, err := New(Config{
		Shards:  shards,
		KeySpan: span,
		New: func(int) dict.Dict {
			return bst.New(bst.Config{Algorithm: engine.AlgThreePath})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestConfigValidation drives every rejection path of Config through a
// table: each invalid configuration must be refused with an error that
// names the failing field and quotes the offending value, so a
// misconfigured caller can see at a glance what to fix.
func TestConfigValidation(t *testing.T) {
	t.Parallel()
	ctor := func(int) dict.Dict {
		return bst.New(bst.Config{Algorithm: engine.AlgNonHTM})
	}
	cases := []struct {
		name string
		cfg  Config
		want []string // substrings the error must contain: field name and value
	}{
		{
			name: "negative shards",
			cfg:  Config{Shards: -1, New: ctor},
			want: []string{"Config.Shards", "-1"},
		},
		{
			name: "nil constructor",
			cfg:  Config{Shards: 4},
			want: []string{"Config.New", "nil"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := New(tc.cfg)
			if err == nil {
				t.Fatalf("accepted invalid config %+v", tc.cfg)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q does not mention %q", err, sub)
				}
			}
		})
	}

	// Valid defaults still work.
	d, err := New(Config{New: ctor})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumShards() != DefaultShards {
		t.Fatalf("NumShards = %d, want default %d", d.NumShards(), DefaultShards)
	}
}

func TestRoutingCoversKeySpace(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{1, 2, 4, 7, 16} {
		d := newShardedBST(t, shards, 10000)
		prev := 0
		for k := uint64(0); k <= 10050; k++ {
			i := d.ShardFor(k)
			if i < 0 || i >= shards {
				t.Fatalf("shards=%d: ShardFor(%d) = %d out of range", shards, k, i)
			}
			if i < prev {
				t.Fatalf("shards=%d: routing not monotone at key %d", shards, k)
			}
			lo, hi := d.Bounds(i)
			if k < lo || (k >= hi && i != shards-1) {
				t.Fatalf("shards=%d: key %d routed to shard %d with bounds [%d,%d)",
					shards, k, i, lo, hi)
			}
			prev = i
		}
		// Keys far beyond the span (up to MaxKey) go to the last shard.
		if i := d.ShardFor(dict.MaxKey); i != shards-1 {
			t.Fatalf("shards=%d: ShardFor(MaxKey) = %d, want %d", shards, i, shards-1)
		}
	}
}

func TestPointOpsAndKeySum(t *testing.T) {
	t.Parallel()
	d := newShardedBST(t, 4, 1000)
	h := d.NewHandle()
	var wantSum, wantCount uint64
	for k := uint64(1); k <= 1000; k += 3 {
		if _, existed := h.Insert(k, k*2); existed {
			t.Fatalf("Insert(%d) reported existing", k)
		}
		wantSum += k
		wantCount++
	}
	if _, existed := h.Insert(7, 99); !existed {
		t.Fatal("re-Insert(7) did not report existing")
	}
	if v, ok := h.Search(7); !ok || v != 99 {
		t.Fatalf("Search(7) = (%d,%v), want (99,true)", v, ok)
	}
	if _, ok := h.Search(8); ok {
		t.Fatal("Search(8) found a missing key")
	}
	if old, existed := h.Delete(10); !existed || old != 20 {
		t.Fatalf("Delete(10) = (%d,%v), want (20,true)", old, existed)
	}
	wantSum -= 10
	wantCount--
	sum, count := d.KeySum()
	if sum != wantSum || count != wantCount {
		t.Fatalf("KeySum = (%d,%d), want (%d,%d)", sum, count, wantSum, wantCount)
	}
	if err := d.CheckPartition(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeQueryAcrossShards checks fan-out range queries return exactly
// the keys in [lo,hi), globally sorted, for windows inside one shard,
// spanning two, and spanning all shards.
func TestRangeQueryAcrossShards(t *testing.T) {
	t.Parallel()
	const span = 1024
	d := newShardedBST(t, 8, span)
	h := d.NewHandle()
	for k := uint64(1); k <= span; k++ {
		h.Insert(k, k+7)
	}
	for _, w := range []struct{ lo, hi uint64 }{
		{5, 60},          // inside shard 0 (width 128)
		{100, 300},       // spans shards 0-2
		{1, span + 1},    // everything
		{500, 500},       // empty
		{700, 650},       // inverted: empty
		{span, 2 * span}, // tail, partially beyond stored keys
	} {
		out := h.RangeQuery(w.lo, w.hi, nil)
		var want []uint64
		for k := w.lo; k < w.hi && k <= span; k++ {
			if k >= 1 {
				want = append(want, k)
			}
		}
		if len(out) != len(want) {
			t.Fatalf("RQ[%d,%d): %d pairs, want %d", w.lo, w.hi, len(out), len(want))
		}
		for i, kv := range out {
			if kv.Key != want[i] || kv.Val != want[i]+7 {
				t.Fatalf("RQ[%d,%d)[%d] = (%d,%d), want (%d,%d)",
					w.lo, w.hi, i, kv.Key, kv.Val, want[i], want[i]+7)
			}
			if i > 0 && out[i-1].Key >= kv.Key {
				t.Fatalf("RQ[%d,%d) unsorted at index %d", w.lo, w.hi, i)
			}
		}
	}
}

func TestStatsAggregateAcrossShards(t *testing.T) {
	t.Parallel()
	d, err := New(Config{
		Shards:  4,
		KeySpan: 4000,
		New: func(int) dict.Dict {
			return abtree.New(abtree.Config{Algorithm: engine.AlgThreePath})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := d.NewHandle()
	for k := uint64(1); k <= 4000; k++ {
		h.Insert(k, k)
	}
	// The trees' own rebalancing steps count as operations too, so the
	// aggregate is at least the number of inserts.
	ops := d.OpStats()
	if ops.Total() < 4000 {
		t.Fatalf("aggregated OpStats total = %d, want >= 4000", ops.Total())
	}
	// Every shard saw inserts, so the aggregate must exceed any single
	// shard's count.
	for i := 0; i < d.NumShards(); i++ {
		if sp, ok := d.Shard(i).(interface{ OpStats() engine.OpStats }); ok {
			if one := sp.OpStats().Total(); one == 0 || one >= ops.Total() {
				t.Fatalf("shard %d ops = %d of aggregate %d", i, one, ops.Total())
			}
		}
	}
	var commits uint64
	for _, n := range ops.Commits {
		commits += n
	}
	if commits == 0 {
		t.Fatal("aggregated OpStats recorded no commits")
	}
}

func TestConcurrentShardedUse(t *testing.T) {
	t.Parallel()
	const span = 512
	d := newShardedBST(t, 8, span)
	var wg sync.WaitGroup
	sums := make([]int64, 4)
	counts := make([]int64, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := d.NewHandle()
			for i := 0; i < 4000; i++ {
				k := uint64((g*31+i*7)%span) + 1
				if i%2 == 0 {
					if _, existed := h.Insert(k, k); !existed {
						sums[g] += int64(k)
						counts[g]++
					}
				} else {
					if _, existed := h.Delete(k); existed {
						sums[g] -= int64(k)
						counts[g]--
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var wantSum, wantCount int64
	for g := range sums {
		wantSum += sums[g]
		wantCount += counts[g]
	}
	sum, count := d.KeySum()
	if int64(sum) != wantSum || int64(count) != wantCount {
		t.Fatalf("key-sum (%d,%d), threads (%d,%d)", sum, count, wantSum, wantCount)
	}
	if err := d.CheckPartition(); err != nil {
		t.Fatal(err)
	}
}

func newAtomicShardedBST(t *testing.T, shards int, span uint64) *Dict {
	t.Helper()
	d, err := New(Config{
		Shards:  shards,
		KeySpan: span,
		Atomic:  true,
		New: func(int) dict.Dict {
			return bst.New(bst.Config{Algorithm: engine.AlgThreePath})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestShardBoundaryKeys exercises range queries whose endpoints land
// exactly on partition boundaries: first/last key of each shard,
// windows starting or ending on a boundary, one-key windows at both
// edges, inverted and empty windows, and the full key space.
func TestShardBoundaryKeys(t *testing.T) {
	t.Parallel()
	const (
		shards = 4
		span   = 400 // width 100
	)
	for _, atomic := range []bool{false, true} {
		atomic := atomic
		t.Run(map[bool]string{false: "plain", true: "atomic"}[atomic], func(t *testing.T) {
			t.Parallel()
			var d *Dict
			if atomic {
				d = newAtomicShardedBST(t, shards, span)
			} else {
				d = newShardedBST(t, shards, span)
			}
			h := d.NewHandle()
			present := make(map[uint64]bool)
			// Populate only the keys adjacent to each boundary, plus the
			// extremes of the legal key space.
			for i := 0; i < shards; i++ {
				lo, hi := d.Bounds(i)
				for _, k := range []uint64{lo, lo + 1, hi - 2, hi - 1} {
					if k < 1 || k > dict.MaxKey {
						continue
					}
					h.Insert(k, k*3)
					present[k] = true
				}
			}
			h.Insert(dict.MaxKey, dict.MaxKey) // far beyond span: last shard
			present[dict.MaxKey] = true

			check := func(lo, hi uint64) {
				t.Helper()
				out := h.RangeQuery(lo, hi, nil)
				var want []uint64
				for k := range present {
					if k >= lo && k < hi {
						want = append(want, k)
					}
				}
				if len(out) != len(want) {
					t.Fatalf("RQ[%d,%d): %d pairs, want %d", lo, hi, len(out), len(want))
				}
				for i, kv := range out {
					if i > 0 && out[i-1].Key >= kv.Key {
						t.Fatalf("RQ[%d,%d) unsorted at %d", lo, hi, i)
					}
					if !present[kv.Key] || kv.Key < lo || kv.Key >= hi {
						t.Fatalf("RQ[%d,%d) returned unexpected key %d", lo, hi, kv.Key)
					}
				}
			}
			for i := 0; i < shards; i++ {
				blo, bhi := d.Bounds(i)
				check(blo, bhi)   // exactly one shard's range
				check(blo, blo+1) // one-key window at the lower edge
				if bhi > blo+1 && bhi < ^uint64(0) {
					check(bhi-1, bhi)   // one-key window at the upper edge
					check(blo+1, bhi+1) // window crossing the upper boundary
				}
			}
			check(0, span)             // whole configured span
			check(0, dict.MaxKey+1)    // full legal key space, incl. clamp tail
			check(span, dict.MaxKey+1) // tail only: everything routed to last shard
			if out := h.RangeQuery(300, 200, nil); len(out) != 0 {
				t.Fatalf("inverted window returned %d pairs", len(out))
			}
			if out := h.RangeQuery(250, 250, nil); len(out) != 0 {
				t.Fatalf("empty window returned %d pairs", len(out))
			}
			if err := d.CheckPartition(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAtomicRangeQueryMatchesPlain checks the atomic fan-out returns the
// same (quiescent) results as the plain one and reports its attempts.
func TestAtomicRangeQueryMatchesPlain(t *testing.T) {
	t.Parallel()
	const span = 1024
	d := newAtomicShardedBST(t, 8, span)
	h := d.NewHandle()
	for k := uint64(1); k <= span; k++ {
		h.Insert(k, k+7)
	}
	out := h.RangeQuery(100, 900, nil)
	if len(out) != 800 {
		t.Fatalf("RQ[100,900): %d pairs, want 800", len(out))
	}
	for i, kv := range out {
		if kv.Key != 100+uint64(i) || kv.Val != kv.Key+7 {
			t.Fatalf("RQ[100,900)[%d] = (%d,%d)", i, kv.Key, kv.Val)
		}
	}
	sum, count := d.KeySum()
	if count != span || sum != span*(span+1)/2 {
		t.Fatalf("KeySum = (%d,%d), want (%d,%d)", sum, count, uint64(span*(span+1)/2), span)
	}
	st := d.RQStats()
	// One multi-shard RQ and one KeySum ran, both quiescent: at least two
	// attempts, no escalations.
	if st.Attempts < 2 {
		t.Fatalf("RQStats.Attempts = %d, want >= 2", st.Attempts)
	}
	if st.Escalations != 0 || st.Retries != 0 {
		t.Fatalf("quiescent reads retried/escalated: %+v", st)
	}
}

// TestAtomicKeySumUnderConcurrentUpdates hammers KeySum while updaters
// run. Every validated snapshot must balance: the sum of a consistent
// cut of a workload that only ever inserts key k with value k and
// deletes it again is the sum of the keys it reports present.
func TestAtomicKeySumUnderConcurrentUpdates(t *testing.T) {
	t.Parallel()
	const span = 256
	d := newAtomicShardedBST(t, 8, span)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := d.NewHandle()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64((g*131+i*17)%span) + 1
				if i%2 == 0 {
					h.Insert(k, k)
				} else {
					h.Delete(k)
				}
			}
		}(g)
	}
	// A consistent cut of this workload always has sum == sum of a set
	// of distinct keys in [1, span]; bound-check each snapshot.
	for i := 0; i < 300; i++ {
		sum, count := d.KeySum()
		if count > span {
			t.Fatalf("KeySum count = %d > %d keys in play", count, span)
		}
		maxSum := count * span
		minSum := count * (count + 1) / 2
		if sum < minSum || sum > maxSum {
			t.Fatalf("KeySum (%d,%d) outside feasible envelope [%d,%d]",
				sum, count, minSum, maxSum)
		}
	}
	close(stop)
	wg.Wait()
}
