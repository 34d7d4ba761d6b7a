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
// path, never what the operation does. The range queries' extents
// straddle the storm's read capacity — a scan of a few keys fits a
// transaction, one of sixty does not, and how many keys an extent covers
// moves with the churn — so the per-call capacity memory is exercised
// inside the checked stream: it learns a floor, skips the calls at or
// above it, probes, and follows the floor down and (where probes can
// commit) back up. Under the storm's spurious aborts a scan long enough
// to matter rarely survives to commit, so each case also runs with the
// capacity limit alone.
func TestDifferentialAbortStorm(t *testing.T) {
	t.Parallel()
	const (
		keySpan   = 512
		numOps    = 3000
		maxExtent = 128
	)
	for _, structure := range []string{"bst", "abtree"} {
		for _, alg := range htmtree.Algorithms() {
			for _, spurious := range []uint64{5, 0} {
				structure, alg, spurious := structure, alg, spurious
				name := fmt.Sprintf("%s/%s", structure, alg)
				if spurious == 0 {
					name += "/capacity-only"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					differentialAbortStorm(t, structure, stormConfig(alg, spurious, 2), keySpan, numOps, maxExtent)
				})
			}
		}
	}
}

func differentialAbortStorm(t *testing.T, structure string, cfg htmtree.Config, keySpan, numOps, maxExtent int) {
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
		switch rng.Intn(7) {
		case 6:
			hi := k + uint64(rng.Intn(maxExtent)) + 1
			out := h.RangeQuery(k, hi, nil)
			wantKeys, wantVals := model.RangeQuery(k, hi)
			if len(out) != len(wantKeys) {
				t.Fatalf("op %d RangeQuery[%d,%d): %d pairs, model %d", i, k, hi, len(out), len(wantKeys))
			}
			for p, kv := range out {
				if kv.Key != wantKeys[p] || kv.Val != wantVals[p] {
					t.Fatalf("op %d RangeQuery[%d,%d)[%d] = (%d,%d), model (%d,%d)",
						i, k, hi, p, kv.Key, kv.Val, wantKeys[p], wantVals[p])
				}
			}
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
	// The capacity memory must have steered inside the checked
	// stream wherever there is a transactional first path for
	// a scan to overflow: calls that overflowed it (capacity
	// skips) and calls kept off it (demotions).
	switch cfg.Algorithm {
	case htmtree.NonHTM, htmtree.SCXHTM:
	default:
		if p := tree.Stats().Policy; p.CapacitySkips == 0 || p.Demotions == 0 {
			t.Errorf("capacity memory never steered: %+v", p)
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
