package shard

import (
	"fmt"

	"htmtree/internal/dict"
)

// Aggregate fan-out: a cross-shard RangeAgg merges per-shard aggregate
// tuples under the same protocol RangeQuery uses (handle.readAtomic), so
// the merged tuple is a consistent cut. Pinned, each shard answers
// inside its pinned transaction — the (a,b)-tree from maintained subtree
// aggregates, touching O(log n) cells, the BST by walking the range.
// Sampled and validated, answering from aggregates is what shrinks the
// window between sampling and validation from O(range) to O(log n), and
// so what makes bounded-retry validation succeed at large ranges.

var _ dict.AggHandle = (*handle)(nil)

// RangeAgg returns the aggregate tuple (sum/count/min/max) of the keys
// in [lo, hi) across all overlapping shards.
//
// It requires the atomic read protocol: a dictionary built without
// Config.Atomic cannot order the per-shard reads against concurrent
// updates, and a merged sum over torn per-shard tuples is silently
// wrong — unlike a torn RangeQuery, there is no per-key output to
// cross-check. Such dictionaries reject the query with an error instead.
func (h *handle) RangeAgg(lo, hi uint64) (dict.Agg, error) {
	empty := dict.Agg{Min: ^uint64(0), Max: 0} // Merge's identity
	agg := empty
	if hi <= lo {
		return agg, nil
	}
	d := h.d
	if d.mons == nil {
		return agg, fmt.Errorf(
			"shard: Config.Atomic = false (cross-shard aggregate queries merge per-shard tuples and would return torn sums; set Config.Atomic)")
	}
	var err error
	first, last := d.rt.overlap(lo, hi)
	readAgg := func() {
		agg, err = empty, nil
		for s := first; s <= last; s++ {
			ah, ok := h.hs[s].(dict.AggHandle)
			if !ok {
				err = fmt.Errorf(
					"shard: Config.New built a %T for shard %d, which does not implement dict.AggHandle", h.hs[s], s)
				return
			}
			a, aerr := ah.RangeAgg(lo, hi)
			if aerr != nil {
				err = aerr
				return
			}
			agg.Merge(a)
		}
	}
	// A window inside a single shard is atomic on its own (the inner
	// query is one template operation).
	if first == last {
		readAgg()
		return agg, err
	}
	h.readAtomic(first, last, func() dict.PinStatus {
		agg = empty
		for s := first; s <= last; s++ {
			a, st := h.pins[s].RangeAggAt(h.rvs[s], lo, hi)
			if st != dict.PinCommitted {
				return st
			}
			agg.Merge(a)
		}
		return dict.PinCommitted
	}, readAgg)
	return agg, err
}
