package shard

// rangeRouter is the routing table: it maps every key to the shard that
// owns it, in contiguous key ranges ascending in the shard index. Shard i
// owns [lo[i], lo[i+1]) and the last shard owns [lo[n-1], ^uint64(0)). A
// Dict publishes its table through an atomic pointer, so a table is
// immutable once built: live rebalancing never mutates one in place, it
// builds a successor with one boundary moved (withBoundary) and swaps the
// pointer. The uniform table additionally records its width so point
// routing stays a single integer division; migrated tables (width == 0)
// binary-search the boundary slice instead.
type rangeRouter struct {
	lo    []uint64 // ascending inclusive lower bounds; lo[0] == 0
	span  uint64   // exclusive upper bound the partition is balanced over
	width uint64   // uniform shard width, 0 for migrated (irregular) tables
}

// newUniformRangeRouter returns the table splitting [0, keySpan)
// uniformly across shards (>= 1, as Config.validate guarantees): keys at
// or beyond keySpan route to the last shard. keySpan 0 selects the full
// key space.
func newUniformRangeRouter(shards int, keySpan uint64) *rangeRouter {
	span := keySpan
	if span == 0 {
		span = maxKeySpan
	}
	// Ceiling division so shards*width covers the span; the last shard
	// additionally owns [span, ∞) via the routing clamp.
	width := (span-1)/uint64(shards) + 1
	lo := make([]uint64, shards)
	for i := range lo {
		lo[i] = uint64(i) * width
	}
	return &rangeRouter{lo: lo, span: span, width: width}
}

// ShardFor returns the index of the shard owning key.
func (r *rangeRouter) ShardFor(key uint64) int {
	if r.width != 0 {
		i := key / r.width
		if i >= uint64(len(r.lo)) {
			return len(r.lo) - 1 // keys beyond the span belong to the last shard
		}
		return int(i)
	}
	// Migrated table: the last shard whose lower bound is <= key.
	// Hand-rolled binary search — this is every point operation's
	// routing step, and sort.Search's closure indirection is measurable
	// there.
	lo, hi := 0, len(r.lo)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if r.lo[mid] <= key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Bounds returns the key range [lo, hi) owned by shard i; the last
// shard's hi is ^uint64(0).
func (r *rangeRouter) Bounds(i int) (lo, hi uint64) {
	if i == len(r.lo)-1 {
		return r.lo[i], ^uint64(0)
	}
	return r.lo[i], r.lo[i+1]
}

// overlap returns the inclusive shard index range a window [lo, hi),
// lo < hi, fans out to. Ownership is contiguous and ascending, so these
// are the owners of its first and last keys, and concatenating the
// shards' ascending results in index order is globally sorted.
func (r *rangeRouter) overlap(lo, hi uint64) (first, last int) {
	return r.ShardFor(lo), r.ShardFor(hi - 1)
}

// withBoundary returns a copy of r with shard i's inclusive lower bound
// moved to newLo. The caller guarantees lo stays strictly ascending.
func (r *rangeRouter) withBoundary(i int, newLo uint64) *rangeRouter {
	lo := make([]uint64, len(r.lo))
	copy(lo, r.lo)
	lo[i] = newLo
	return &rangeRouter{lo: lo, span: r.span}
}
