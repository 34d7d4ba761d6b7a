package shard

// rangeRouter is the routing table: it splits [0, span) uniformly into
// contiguous key ranges ascending in the shard index — shard i owns
// [i*width, (i+1)*width) — and the last shard also owns everything from
// its lower bound upward. A Dict builds its table once, with the
// dictionary, and never changes it.
type rangeRouter struct {
	width  uint64 // ⌈span/shards⌉
	shards int
}

// newUniformRangeRouter returns the table splitting [0, keySpan)
// uniformly across shards (>= 1, as Config.validate guarantees): keys at
// or beyond keySpan route to the last shard. keySpan 0 selects the full
// key space.
func newUniformRangeRouter(shards int, keySpan uint64) rangeRouter {
	span := keySpan
	if span == 0 {
		span = maxKeySpan
	}
	// Ceiling division so shards*width covers the span; the last shard
	// additionally owns [span, ∞) via the routing clamp.
	return rangeRouter{width: (span-1)/uint64(shards) + 1, shards: shards}
}

// ShardFor returns the index of the shard owning key.
func (r rangeRouter) ShardFor(key uint64) int {
	i := key / r.width
	if i >= uint64(r.shards) {
		return r.shards - 1 // keys beyond the span belong to the last shard
	}
	return int(i)
}

// Bounds returns the key range [lo, hi) owned by shard i; the last
// shard's hi is ^uint64(0).
func (r rangeRouter) Bounds(i int) (lo, hi uint64) {
	lo = uint64(i) * r.width
	if i == r.shards-1 {
		return lo, ^uint64(0)
	}
	return lo, lo + r.width
}

// overlap returns the inclusive shard index range a window [lo, hi),
// lo < hi, fans out to. Ownership is contiguous and ascending, so these
// are the owners of its first and last keys, and concatenating the
// shards' ascending results in index order is globally sorted.
func (r rangeRouter) overlap(lo, hi uint64) (first, last int) {
	return r.ShardFor(lo), r.ShardFor(hi - 1)
}
