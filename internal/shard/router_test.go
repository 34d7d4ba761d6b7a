package shard

import (
	"testing"

	"htmtree/internal/dict"
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

// TestRangeRouterOverlap checks the fan-out bounds of every window over a
// small key space, on tables whose span divides evenly and unevenly:
// overlap must return exactly the first and last shard owning a key of
// [lo, hi). So a window ending at a shard's lower bound excludes that
// shard, and a window in the last shard's open tail, past the configured
// span, is that shard's alone. Owners come from the case's own bound
// list, not from the table under test, and Bounds must agree with it.
func TestRangeRouterOverlap(t *testing.T) {
	t.Parallel()
	const top = 80 // windows run past every span into the open tail
	for _, tc := range []struct {
		name string
		span uint64
		r    rangeRouter
		lo   []uint64 // each shard's inclusive lower bound
	}{
		{"even", 64, newUniformRangeRouter(4, 64), []uint64{0, 16, 32, 48}},
		{"uneven", 50, newUniformRangeRouter(3, 50), []uint64{0, 17, 34}},
	} {
		for i, lo := range tc.lo {
			blo, bhi := tc.r.Bounds(i)
			wantHi := ^uint64(0)
			if i+1 < len(tc.lo) {
				wantHi = tc.lo[i+1]
			}
			if blo != lo || bhi != wantHi {
				t.Fatalf("%s: Bounds(%d) = [%d, %d), want [%d, %d)", tc.name, i, blo, bhi, lo, wantHi)
			}
		}
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
		if first, last := tc.r.overlap(tc.span, top); first != tail || last != tail {
			t.Fatalf("%s: tail window [%d, %d) = %d..%d, want %d..%d", tc.name, tc.span, top, first, last, tail, tail)
		}
	}
}
