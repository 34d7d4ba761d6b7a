package abtree

import (
	"testing"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
)

// TestRangeAggSkipsEmptySubtrees queries a tree whose emptied leaves are
// still linked. Insert and Delete repair what they leave underfull before
// returning, so no test that goes through them ever shows a range walk
// an empty leaf or a subtree of them; here three runs of keys are deleted
// with the fix loop left out. A window's min (max) must then
// come from the first (last) subtree that holds a key, past however many
// covered ones that hold none, and every window must still equal the
// brute-force fold of the keys that remain.
func TestRangeAggSkipsEmptySubtrees(t *testing.T) {
	t.Parallel()
	const keys = 256
	runs := [][2]uint64{{1, 60}, {100, 160}, {200, keys + 1}} // [from, to) deleted
	for _, alg := range []engine.Algorithm{engine.AlgThreePath, engine.AlgTLE, engine.AlgTwoPathConc} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg, A: 2, B: 4})
			h := tr.newHandle()
			present := map[uint64]bool{}
			for k := uint64(1); k <= keys; k++ {
				h.Insert(k, k)
				present[k] = true
			}
			for _, r := range runs {
				for k := r[0]; k < r[1]; k++ {
					h.Key = k
					h.Th.Run(h.DeleteOp) // Delete without runFixLoop
					h.Pool.Settle()
					if !h.Res.Found {
						t.Fatalf("delete %d: not found", k)
					}
					delete(present, k)
				}
			}
			if err := tr.CheckInvariants(false); err != nil {
				t.Fatal(err)
			}
			empty := 0
			var walk func(n *Node)
			walk = func(n *Node) {
				if n.leaf {
					if _, sz := n.ord.Get(nil); sz == 0 {
						empty++
					}
					return
				}
				for i := range n.children() {
					walk(n.children()[i].Get(nil))
				}
			}
			walk(tr.entry.children()[0].Get(nil))
			if empty < 10 {
				t.Fatalf("%d empty leaves linked, want >= 10: the deletes were repaired", empty)
			}

			for _, lo := range []uint64{0, 30, 130} {
				for _, hi := range []uint64{80, 150, 190, 230, 1000} {
					want := dict.Agg{Min: ^uint64(0), Max: 0}
					for k := lo; k < hi && k <= keys; k++ {
						if present[k] {
							want.Merge(dict.Agg{Sum: k, Count: 1, Min: k, Max: k})
						}
					}
					if got, _ := h.RangeAgg(lo, hi); got != want {
						t.Errorf("RangeAgg(%d, %d) = %+v, want %+v", lo, hi, got, want)
					}
				}
			}
		})
	}
}
