package shard

import (
	"testing"

	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
)

// TestRangeRouterMatchesLegacyRouting checks the uniform range router
// is bit-for-bit the original routing function: floor division by the
// ceiling width, clamped to the last shard.
func TestRangeRouterMatchesLegacyRouting(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		shards int
		span   uint64
	}{
		{1, 1000}, {2, 1000}, {7, 10000}, {8, 1 << 20}, {16, 4096}, {8, 10}, {3, 0},
	} {
		r := newUniformRangeRouter(tc.shards, tc.span)
		span := tc.span
		if span == 0 {
			span = dict.MaxKey + 1
		}
		width := (span-1)/uint64(tc.shards) + 1
		legacy := func(key uint64) int {
			i := key / width
			if i >= uint64(tc.shards) {
				return tc.shards - 1
			}
			return int(i)
		}
		probe := []uint64{0, 1, width - 1, width, width + 1, span - 1, span, span + 1,
			2*width - 1, 2 * width, dict.MaxKey, ^uint64(0)}
		for k := uint64(0); k < 3000; k++ {
			probe = append(probe, k*(span/3000+1))
		}
		for _, k := range probe {
			if got, want := r.ShardFor(k), legacy(k); got != want {
				t.Fatalf("shards=%d span=%d: ShardFor(%d) = %d, legacy %d",
					tc.shards, tc.span, k, got, want)
			}
		}
	}
}

// TestMigratedRangeRouterRouting checks boundary-table routing (the
// binary-search path) against the boundaries themselves.
func TestMigratedRangeRouterRouting(t *testing.T) {
	t.Parallel()
	// Move shard 1's bound down and shard 3's up: bounds 0,50,200,350.
	r := newUniformRangeRouter(4, 400).withBoundary(1, 50).withBoundary(3, 350)
	wantLo := []uint64{0, 50, 200, 350}
	for i, lo := range wantLo {
		blo, bhi := r.Bounds(i)
		if blo != lo {
			t.Fatalf("Bounds(%d) lo = %d, want %d", i, blo, lo)
		}
		if i < 3 && bhi != wantLo[i+1] {
			t.Fatalf("Bounds(%d) hi = %d, want %d", i, bhi, wantLo[i+1])
		}
	}
	if _, hi := r.Bounds(3); hi != ^uint64(0) {
		t.Fatalf("last bound hi = %d, want ^0", hi)
	}
	for k := uint64(0); k <= 1000; k++ {
		want := 0
		for i, lo := range wantLo {
			if k >= lo {
				want = i
			}
		}
		if got := r.ShardFor(k); got != want {
			t.Fatalf("ShardFor(%d) = %d, want %d", k, got, want)
		}
	}
}

// TestRangeRouterOverlap checks the fan-out bounds of every window over a
// small key space, on a uniform table and on two migrated ones: overlap
// must return exactly the first and last shard owning a key of [lo, hi).
// So a window ending at a shard's lower bound excludes that shard, and a
// window in the last shard's open tail, past the configured span, is
// that shard's alone. Owners come from the case's own bound list, not
// from the table under test.
func TestRangeRouterOverlap(t *testing.T) {
	t.Parallel()
	const span, top = 64, 80 // windows run past the span into the open tail
	uniform := newUniformRangeRouter(4, span)
	for _, tc := range []struct {
		name string
		r    *rangeRouter
		lo   []uint64 // each shard's inclusive lower bound
	}{
		{"uniform", uniform, []uint64{0, 16, 32, 48}},
		{"one-moved", uniform.withBoundary(1, 5), []uint64{0, 5, 32, 48}},
		{"two-moved", uniform.withBoundary(3, 60).withBoundary(2, 17), []uint64{0, 16, 17, 60}},
	} {
		owner := func(k uint64) int {
			i := 0
			for j, lo := range tc.lo {
				if k >= lo {
					i = j
				}
			}
			return i
		}
		for lo := uint64(0); lo < top; lo++ {
			wantFirst, wantLast := len(tc.lo), -1
			for hi := lo + 1; hi <= top; hi++ {
				wantFirst, wantLast = min(wantFirst, owner(hi-1)), max(wantLast, owner(hi-1))
				if first, last := tc.r.overlap(lo, hi); first != wantFirst || last != wantLast {
					t.Fatalf("%s: overlap(%d, %d) = %d..%d, want %d..%d",
						tc.name, lo, hi, first, last, wantFirst, wantLast)
				}
			}
		}
		// The two edges by name.
		for i := 1; i < len(tc.lo); i++ {
			if _, last := tc.r.overlap(0, tc.lo[i]); last != i-1 {
				t.Fatalf("%s: window ending at shard %d's lower bound %d reaches shard %d",
					tc.name, i, tc.lo[i], last)
			}
		}
		tail := len(tc.lo) - 1
		if first, last := tc.r.overlap(span, top); first != tail || last != tail {
			t.Fatalf("%s: tail window [%d, %d) = %d..%d, want %d..%d", tc.name, span, top, first, last, tail, tail)
		}
	}
}

func newAdaptiveShardedBST(t *testing.T, shards int, span uint64, reb RebalanceConfig) *Dict {
	t.Helper()
	d, err := New(Config{
		Shards:    shards,
		KeySpan:   span,
		Atomic:    true,
		Rebalance: &reb,
		New: func(_ int, mon *engine.UpdateMonitor) dict.Dict {
			return bst.New(bst.Config{
				Algorithm: engine.AlgThreePath,
				Engine:    engine.Config{Monitor: mon},
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRebalanceMigratesHotBoundary hammers one shard's key range on an
// adaptive dictionary and checks that (a) migrations happen, (b) the
// hot shard's span shrinks, (c) every key remains reachable and the
// partition invariant holds afterwards.
func TestRebalanceMigratesHotBoundary(t *testing.T) {
	t.Parallel()
	const (
		shards = 4
		span   = 4000 // width 1000
	)
	d := newAdaptiveShardedBST(t, shards, span, RebalanceConfig{
		CheckOps: 64,
		Ratio:    1.1,
	})
	h := d.NewHandle()
	present := make(map[uint64]uint64)
	for k := uint64(1); k <= span; k += 7 { // spread keys over all shards
		h.Insert(k, k*3)
		present[k] = k * 3
	}
	origLo, origHi := d.Bounds(0)

	// Hot loop confined to shard 0's original range.
	for i := 0; i < 40000; i++ {
		k := uint64(i%997) + 1
		if i%2 == 0 {
			h.Insert(k, k*3)
			present[k] = k * 3
		} else {
			if _, existed := h.Delete(k); existed {
				delete(present, k)
			}
		}
	}

	st := d.RebalanceStats()
	if st.Migrations == 0 {
		t.Fatalf("no migrations under a fully skewed load: %+v", st)
	}
	lo, hi := d.Bounds(0)
	if lo != origLo {
		t.Fatalf("shard 0 lower bound moved: %d -> %d", origLo, lo)
	}
	if hi >= origHi {
		t.Fatalf("hot shard 0 span did not shrink: [%d,%d) -> [%d,%d), stats %+v",
			origLo, origHi, lo, hi, st)
	}
	// Every key must still be routed to a shard that has it.
	for k, v := range present {
		got, ok := h.Search(k)
		if !ok || got != v {
			t.Fatalf("Search(%d) = (%d,%v) after migrations, want (%d,true)", k, got, ok, v)
		}
	}
	out := h.RangeQuery(1, span+1, nil)
	if len(out) != len(present) {
		t.Fatalf("RangeQuery returned %d pairs, want %d", len(out), len(present))
	}
	for i, kv := range out {
		if i > 0 && out[i-1].Key >= kv.Key {
			t.Fatalf("fan-out unsorted at %d after migrations", i)
		}
		if v, ok := present[kv.Key]; !ok || v != kv.Val {
			t.Fatalf("RangeQuery pair (%d,%d) unexpected", kv.Key, kv.Val)
		}
	}
	var wantSum uint64
	for k := range present {
		wantSum += k
	}
	sum, count := d.KeySum()
	if count != uint64(len(present)) || sum != wantSum {
		t.Fatalf("KeySum = (%d,%d), want (%d,%d)", sum, count, wantSum, len(present))
	}
	if err := d.CheckPartition(); err != nil {
		t.Fatal(err)
	}
}
