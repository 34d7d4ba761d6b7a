package modelcheck

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"htmtree"
)

// stormConfig is a tree under an abort storm: injected spurious aborts,
// a read capacity the deeper descents overflow and tiny attempt budgets,
// so the attempt loops actually steer — free retries, capacity skips
// and demotions all fire inside the checked stream — and every path of
// the algorithm carries load.
func stormConfig(alg htmtree.Algorithm, spuriousEvery uint64, budget int) htmtree.Config {
	return htmtree.Config{
		Algorithm:          alg,
		SpuriousAbortEvery: spuriousEvery,
		ReadCapacity:       16,
		AttemptLimit:       budget,
		FastLimit:          budget,
		MiddleLimit:        budget,
	}
}

// TestDifferentialAbortStorm runs the lockstep differential on both
// trees under every algorithm in an abort storm. Correctness must not
// depend on where an operation ran: the attempt loops only choose the
// path, never what the operation does.
func TestDifferentialAbortStorm(t *testing.T) {
	t.Parallel()
	const (
		keySpan = 512
		numOps  = 3000
	)
	for _, structure := range []string{"bst", "abtree"} {
		for _, alg := range htmtree.Algorithms() {
			structure, alg := structure, alg
			t.Run(fmt.Sprintf("%s/%s", structure, alg), func(t *testing.T) {
				t.Parallel()
				cfg := stormConfig(alg, 5, 2)
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
				h := tree.NewHandle()
				model := NewModel()
				rng := rand.New(rand.NewSource(0xabc))
				for i := 0; i < numOps; i++ {
					k := uint64(rng.Intn(keySpan)) + 1
					switch rng.Intn(6) {
					case 0, 1, 2:
						v := uint64(rng.Intn(1 << 30))
						old, existed := h.Insert(k, v)
						wantOld, wantEx := model.Insert(k, v)
						if existed != wantEx || (existed && old != wantOld) {
							t.Fatalf("op %d Insert(%d,%d) = (%d,%v), model (%d,%v)",
								i, k, v, old, existed, wantOld, wantEx)
						}
					case 3, 4:
						old, existed := h.Delete(k)
						wantOld, wantEx := model.Delete(k)
						if existed != wantEx || (existed && old != wantOld) {
							t.Fatalf("op %d Delete(%d) = (%d,%v), model (%d,%v)",
								i, k, old, existed, wantOld, wantEx)
						}
					default:
						got, found := h.Search(k)
						want, ok := model.Search(k)
						if found != ok || (found && got != want) {
							t.Fatalf("op %d Search(%d) = (%d,%v), model (%d,%v)",
								i, k, got, found, want, ok)
						}
					}
				}
				sum, count := tree.KeySum()
				wantSum, wantCount := model.KeySum()
				if sum != wantSum || count != wantCount {
					t.Fatalf("KeySum = (%d,%d), model (%d,%d)", sum, count, wantSum, wantCount)
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestConcurrentKeySumAbortStorm is the concurrent counterpart:
// goroutines hammer one BST per algorithm in an abort storm, and the
// final key-sum must match the threads' accounting.
func TestConcurrentKeySumAbortStorm(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 4
		keySpan    = 256
	)
	opsPerG := 2500
	if testing.Short() {
		opsPerG = 600
	}
	for _, alg := range htmtree.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			tree, err := htmtree.NewBST(stormConfig(alg, 3, 1))
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
						k := uint64((g*7919+i*31)%keySpan) + 1
						if i%3 == 2 {
							if _, existed := h.Delete(k); existed {
								sums[g] -= int64(k)
								counts[g]--
							}
						} else {
							if _, existed := h.Insert(k, k); !existed {
								sums[g] += int64(k)
								counts[g]++
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
				t.Fatalf("key-sum (%d,%d), threads (%d,%d)", sum, count, wantSum, wantCount)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
