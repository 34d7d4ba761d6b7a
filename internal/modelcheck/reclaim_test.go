package modelcheck

import (
	"fmt"
	"sync"
	"testing"

	"htmtree"
	"htmtree/internal/htm"
)

// TestRaceKeySumVsReclamation hammers the consistent-cut KeySum of a
// sharded atomic tree while updaters churn pooled nodes. The KeySum
// walk runs outside any engine operation, so it must join the trees'
// reclamation domains itself (a dedicated ebr reader context) — without
// that, a pooled internal node's plain key/child arrays could be
// rewritten mid-walk, a Go data race this test surfaces under -race.
func TestRaceKeySumVsReclamation(t *testing.T) {
	t.Parallel()
	const keySpan = 256
	iters := 3000
	if testing.Short() {
		iters = 800
	}
	for _, structure := range []string{"bst", "abtree"} {
		structure := structure
		t.Run(structure, func(t *testing.T) {
			t.Parallel()
			cfg := htmtree.Config{
				Algorithm:          htmtree.ThreePath,
				Shards:             4,
				ShardKeySpan:       keySpan,
				AtomicRangeQueries: true,
				A:                  2,
				B:                  4,
			}
			var (
				tree *htmtree.Tree
				err  error
			)
			if structure == "bst" {
				tree, err = htmtree.NewShardedBST(cfg)
			} else {
				tree, err = htmtree.NewShardedABTree(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := tree.NewHandle()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						k := uint64((g*7919+i*13)%keySpan) + 1
						if i%2 == 0 {
							h.Insert(k, k)
						} else {
							h.Delete(k)
						}
					}
				}(g)
			}
			for i := 0; i < iters; i++ {
				if _, count := tree.KeySum(); count > keySpan {
					t.Errorf("KeySum count %d exceeds key span %d", count, keySpan)
					break
				}
			}
			close(stop)
			wg.Wait()
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRaceReclamationStress hammers insert/delete on a small key range
// with pooled nodes under the race detector, across both structures and
// forced execution-path transitions. Deletions dominate so nodes cycle
// through the pools continuously: every removal rides a grace period
// before its node is reused with plain stores — precisely the window
// where an unsynchronized reuse write would surface as a race report or
// a key-sum mismatch. Sized for `go test -race -short ./...`.
func TestRaceReclamationStress(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 4
		keySpan    = 128
	)
	opsPerG := 4000
	if testing.Short() {
		opsPerG = 1200
	}
	for _, structure := range []string{"bst", "abtree"} {
		for _, spurious := range []int{0, 6} {
			structure, spurious := structure, spurious
			t.Run(fmt.Sprintf("%s/spurious=%d", structure, spurious), func(t *testing.T) {
				t.Parallel()
				cfg := htmtree.Config{
					Algorithm: htmtree.ThreePath,
					A:         2,
					B:         4, // tiny degree bounds: constant splits and joins
				}
				if spurious > 0 {
					cfg.Faults = txAborts(spurious, htm.CauseSpurious)
				}
				var (
					tree *htmtree.Tree
					err  error
				)
				if structure == "bst" {
					tree, err = htmtree.NewBST(cfg)
				} else {
					tree, err = htmtree.NewABTree(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				sums := make([]int64, goroutines)
				counts := make([]int64, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						h := tree.NewHandle()
						for i := 0; i < opsPerG; i++ {
							k := uint64((g*104729+i*31)%keySpan) + 1
							if i%3 == 0 {
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
							if i%257 == 0 {
								if _, found := h.Search(k); found {
									_ = found
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
				sum, count := tree.KeySum()
				if int64(sum) != wantSum || int64(count) != wantCount {
					t.Fatalf("key-sum (%d,%d), threads (%d,%d): reclamation corrupted the tree",
						sum, count, wantSum, wantCount)
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
