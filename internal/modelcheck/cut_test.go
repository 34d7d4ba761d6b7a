package modelcheck

import (
	"sync"
	"sync/atomic"
	"testing"

	"htmtree"
)

// TestFallbackRangeQueryIsACut asks that a fallback-path RangeQuery return
// an atomic cut, on both trees. One updater inserts L_i at the low end of
// the key space and then R_i at the high end, so a scan that returns R_i
// must return L_i. Read capacity 64 sends every full-range scan to the
// fallback path. The fallback walk (the BST's rqFallback and the
// (a,b)-tree's walkLLX, whose results RangeAgg folds on both) validates
// each node when it visits it and nothing at the end: an insert into a leaf the scan has passed, then one under a parent
// it has yet to visit, shows it only the second. Unskipped on a 2-vCPU
// host, 28 of 32 subtests failed over 8 runs, every subtest at least 6
// times, so it is skipped until ROADMAP D settles the fix.
func TestFallbackRangeQueryIsACut(t *testing.T) {
	t.Skip("fallback RangeQuery takes per-node snapshots, not an atomic cut (ROADMAP D)")
	t.Parallel()
	for _, structure := range []string{"abtree", "bst"} {
		for _, alg := range []htmtree.Algorithm{htmtree.ThreePath, htmtree.NonHTM} {
			structure, alg := structure, alg
			t.Run(structure+"/"+string(alg), func(t *testing.T) {
				t.Parallel()
				cfg := htmtree.Config{Algorithm: alg, ReadCapacity: 64}
				newTree := htmtree.NewABTree
				if structure == "bst" {
					newTree = htmtree.NewBST
				}
				tree, err := newTree(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runRangeQueryCut(t, tree)
			})
		}
	}
}

// runRangeQueryCut prefills even keys 2..4000. One goroutine inserts
// L_i = 2i-1 and then R_i = 3000+2i-1 for i = 1..500, deletes each R_i
// and then its L_i, and starts over; every state it passes through holds
// L_i wherever it holds R_i. The test's goroutine makes 100 full-range
// scans meanwhile and fails on those that hold an R_i without its L_i.
func runRangeQueryCut(t *testing.T, tree *htmtree.Tree) {
	const keys, pairs, scans = 2000, 500, 100
	left := func(i uint64) uint64 { return 2*i - 1 }
	right := func(i uint64) uint64 { return 2*(keys-pairs) + 2*i - 1 }
	pre := tree.NewHandle()
	for k := uint64(1); k <= keys; k++ {
		pre.Insert(2*k, 2*k)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := tree.NewHandle()
		close(started)
		for !stop.Load() {
			for i := uint64(1); i <= pairs; i++ {
				w.Insert(left(i), left(i))
				w.Insert(right(i), right(i))
			}
			for i := uint64(1); i <= pairs; i++ {
				w.Delete(right(i))
				w.Delete(left(i))
			}
		}
	}()
	s := tree.NewHandle()
	torn := 0
	var out []htmtree.KV
	<-started
	for n := 0; n < scans; n++ {
		out = s.RangeQuery(0, htmtree.MaxKey, out[:0])
		seen := make(map[uint64]bool, len(out))
		for _, p := range out {
			seen[p.Key] = true
		}
		for i := uint64(1); i <= pairs; i++ {
			if seen[right(i)] && !seen[left(i)] {
				torn++
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn > 0 {
		t.Errorf("%d of %d full-range scans returned some R_i without its L_i", torn, scans)
	}
}
