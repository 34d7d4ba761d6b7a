package engine

import (
	"slices"
	"testing"

	"htmtree/internal/dict"
	"htmtree/internal/htm"
)

// TestHandleKeepsNoRangeResult: the range result is the caller's slice
// for the length of one call. After RangeQuery, RangeQueryAt (committed
// and aborted) and RangeAgg, h.Range is nil, so the handle keeps neither
// a buffer nor a reference to the caller's slice; and the result is the
// caller's prefix followed by the pairs, whichever attempt collected
// them. An aggregate query (RangeAgg, RangeAggAt) collects no pairs at
// all, not even for the length of the call: its walk folds them, and its
// tuple too counts only the attempt that committed.
func TestHandleKeepsNoRangeResult(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	e := New(Config{Algorithm: AlgThreePath}, nil)
	h := &Handle[pnode]{Th: e.NewThread(tm.NewThread())}
	cells := make([]htm.Word, 8)
	for i := range cells {
		cells[i].Set(nil, uint64(10*i))
	}
	// The walk collects the keys i in [Lo, Hi) with the cells' values;
	// its first attempt of each call aborts after collecting one pair.
	failFirst, folding, kept := false, false, false
	walk := func(tx *htm.Tx) {
		h.RestartRange()
		for i := range cells {
			if k := uint64(i); k >= h.Lo && k < h.Hi {
				h.Collect(k, cells[i].Get(tx))
				kept = kept || folding && h.Range != nil
				if failFirst {
					failFirst = false
					tx.Abort(1)
				}
			}
		}
	}
	h.RangeOp = Op{Site: NewSite(), Fast: walk, Fallback: func() bool { walk(nil); return true }}
	prefix := []dict.KV{{Key: 99, Val: 1}}
	want := append(slices.Clone(prefix), dict.KV{Key: 2, Val: 20}, dict.KV{Key: 3, Val: 30}, dict.KV{Key: 4, Val: 40})

	check := func(name string, got, want []dict.KV) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
		if h.Range != nil {
			t.Errorf("after %s, h.Range = %v (cap %d), want nil", name, h.Range, cap(h.Range))
		}
	}
	check("RangeQuery", h.RangeQuery(2, 5, slices.Clone(prefix)), want)
	failFirst = true
	check("RangeQuery after an aborted attempt", h.RangeQuery(2, 5, slices.Clone(prefix)), want)

	out, st := h.RangeQueryAt(tm.Clock().Now(), 2, 5, slices.Clone(prefix))
	if st != dict.PinCommitted {
		t.Fatalf("RangeQueryAt of unchanged cells: status %v", st)
	}
	check("committed RangeQueryAt", out, want)
	rv := tm.Clock().Now()
	cells[3].Set(nil, 31)
	out, st = h.RangeQueryAt(rv, 2, 5, slices.Clone(prefix))
	if st != dict.PinAborted {
		t.Fatalf("RangeQueryAt over a cell written after rv: status %v, want aborted", st)
	}
	check("aborted RangeQueryAt", out, prefix)

	folding = true
	checkAgg := func(name string, got, want dict.Agg) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
		if h.Range != nil || kept {
			t.Errorf("%s collected pairs: h.Range = %v during or after the call, want nil", name, h.Range)
		}
	}
	window := dict.Agg{Sum: 9, Count: 3, Min: 2, Max: 4}
	agg, _ := h.RangeAgg(2, 5)
	checkAgg("RangeAgg", agg, window)
	failFirst = true
	agg, _ = h.RangeAgg(2, 5)
	checkAgg("RangeAgg after an aborted attempt", agg, window)
	agg, _ = h.RangeAgg(0, dict.MaxKey+1)
	checkAgg("whole-range RangeAgg", agg, dict.Agg{Sum: 28, Count: 8, Min: 0, Max: 7})
	agg, st = h.RangeAggAt(tm.Clock().Now(), 2, 5)
	if st != dict.PinCommitted {
		t.Fatalf("RangeAggAt of unchanged cells: status %v", st)
	}
	checkAgg("committed RangeAggAt", agg, window)
	rv = tm.Clock().Now()
	cells[4].Set(nil, 41)
	if _, st = h.RangeAggAt(rv, 2, 5); st != dict.PinAborted {
		t.Fatalf("RangeAggAt over a cell written after rv: status %v, want aborted", st)
	}
	folding = false
	check("RangeQuery after RangeAggAt", h.RangeQuery(2, 5, nil), []dict.KV{{Key: 2, Val: 20}, {Key: 3, Val: 31}, {Key: 4, Val: 41}})
}
