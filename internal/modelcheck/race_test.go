package modelcheck

import (
	"fmt"
	"sync"
	"testing"

	"htmtree"
	"htmtree/internal/htm"
)

// TestRacePathTransitions stresses the engine's execution-path
// transitions under the race detector: injected spurious aborts force
// operations off the fast path, through the middle path, and onto the
// lock-free fallback while neighbouring
// goroutines keep committing transactionally — the fast↔middle↔fallback
// concurrency windows where unsynchronized accesses would hide. Sized
// for `go test -race -short ./...`.
func TestRacePathTransitions(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 4
		keySpan    = 256
	)
	opsPerG := 3000
	if testing.Short() {
		opsPerG = 800
	}
	for _, alg := range htmtree.Algorithms() {
		for _, shards := range []int{1, 4} {
			alg, shards := alg, shards
			t.Run(fmt.Sprintf("%s/x%d", alg, shards), func(t *testing.T) {
				t.Parallel()
				cfg := htmtree.Config{
					Algorithm: alg,
					// A spurious abort at every third transactional
					// access fails nearly every attempt of an operation
					// that logs a dozen cells, so a steady share of the
					// traffic exhausts each path's budget and moves down
					// to the next. (The BST's keys are plain fields,
					// read outside the transaction's bookkeeping, so they
					// neither join the read set nor roll the injector's
					// dice.)
					Faults:       txAborts(3, htm.CauseSpurious),
					Shards:       shards,
					ShardKeySpan: keySpan,
				}
				var (
					tree *htmtree.Tree
					err  error
				)
				if shards > 1 {
					tree, err = htmtree.NewShardedBST(cfg)
				} else {
					tree, err = htmtree.NewBST(cfg)
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
						var out []htmtree.KV
						for i := 0; i < opsPerG; i++ {
							k := uint64((g*7919+i*31)%keySpan) + 1
							switch i % 4 {
							case 0, 1:
								if _, existed := h.Insert(k, k); !existed {
									sums[g] += int64(k)
									counts[g]++
								}
							case 2:
								if _, existed := h.Delete(k); existed {
									sums[g] -= int64(k)
									counts[g]--
								}
							case 3:
								out = h.RangeQuery(k, k+16, out[:0])
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
					t.Fatalf("key-sum (%d,%d), threads (%d,%d)", sum, count, wantSum, wantCount)
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				// The abort storm must actually have demoted operations:
				// every HTM algorithm needs its non-fast paths exercised.
				st := tree.Stats()
				switch alg {
				case htmtree.ThreePath:
					if st.Ops.Middle == 0 || st.Ops.Fallback == 0 {
						t.Fatalf("3-path transitions not exercised: %+v", st.Ops)
					}
				case htmtree.NonHTM:
					// Always on the fallback path by construction.
				default:
					if st.Ops.Fallback == 0 {
						t.Fatalf("fallback never reached: %+v", st.Ops)
					}
				}
			})
		}
	}
}
