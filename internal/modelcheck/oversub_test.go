package modelcheck

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"htmtree"
)

// oversubCombo is one point of the oversubscription stress sweep: both
// structures, the classic TLE lock and the helpable fallback, unsharded
// and 8-way sharded.
type oversubCombo struct {
	structure string
	helpable  bool
	shards    int
}

func oversubCombos() []oversubCombo {
	var cs []oversubCombo
	for _, structure := range []string{"bst", "abtree"} {
		for _, helpable := range []bool{false, true} {
			for _, shards := range []int{1, 8} {
				cs = append(cs, oversubCombo{structure, helpable, shards})
			}
		}
	}
	return cs
}

func (c oversubCombo) name() string {
	fb := "tle"
	if c.helpable {
		fb = "helpable"
	}
	return fmt.Sprintf("%s/%s/x%d", c.structure, fb, c.shards)
}

// TestOversubscribedDifferential is the oversubscription battery: the
// TLE fallback — classic lock and helpable lock-free lock — exercised
// with more threads than processors, so critical-section owners are
// genuinely descheduled mid-protocol, with a scheduling yield injected
// into every fallback body to force the worst interleavings
// deterministically rather than waiting for the scheduler to find them.
//
// Every thread owns a disjoint contiguous key range and drives a
// per-thread sequential model in lockstep: point-op return values and
// in-range range queries must agree op for op. Disjointness makes the
// per-thread differential sound under concurrency — no other thread's
// operations can change this thread's window — while the shared trees,
// the shared TLE word (and announcement slots, helpers executing other
// threads' operations with their own handles), and the shared shard
// boundaries stay fully contended. A helper that completed the wrong
// operation, delivered a stale descriptor result, double-applied an
// announced insert, or leaked the lock word would surface as a
// lockstep disagreement, a wedged thread, or a final key-sum mismatch.
func TestOversubscribedDifferential(t *testing.T) {
	const (
		threads   = 8
		procs     = 2
		perThread = 512 // keys per thread range
	)
	numOps := 1500
	if testing.Short() {
		numOps = 400
	}
	// The pin is process-global, so this test must not run in parallel
	// with others and the sweep's combos run sequentially under it.
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	keySpan := uint64(threads * perThread)
	for _, c := range oversubCombos() {
		t.Run(c.name(), func(t *testing.T) {
			cfg := htmtree.Config{
				Algorithm:    htmtree.TLE,
				Shards:       c.shards,
				ShardKeySpan: keySpan,
				// Force heavy fallback traffic: a spurious abort every
				// few transactional accesses overwhelms a two-attempt
				// fast-path budget.
				SpuriousAbortEvery: 8,
				AttemptLimit:       2,
				HelpableFallback:   c.helpable,
				// Yield right after each fallback entry takes, or
				// announces under, the lock word.
				Faults: htmtree.NewFaultPlan(0, htmtree.FaultRule{
					Point: htmtree.FaultFallbackOwner, Func: runtime.Gosched,
				}),
			}
			var (
				tree *htmtree.Tree
				err  error
			)
			switch {
			case c.structure == "bst" && c.shards > 1:
				tree, err = htmtree.NewShardedBST(cfg)
			case c.structure == "bst":
				tree, err = htmtree.NewBST(cfg)
			case c.shards > 1:
				tree, err = htmtree.NewShardedABTree(cfg)
			default:
				tree, err = htmtree.NewABTree(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}

			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				wantSum uint64
				wantCnt uint64
			)
			for ti := 0; ti < threads; ti++ {
				wg.Add(1)
				go func(ti int) {
					defer wg.Done()
					h := tree.NewHandle()
					model := NewModel()
					rng := rand.New(rand.NewSource(int64(0xc0ffee + ti)))
					base := uint64(ti*perThread) + 1 // own range [base, base+perThread)
					for i := 0; i < numOps; i++ {
						k := base + uint64(rng.Intn(perThread))
						switch rng.Intn(8) {
						case 0, 1, 2:
							v := uint64(rng.Intn(1 << 30))
							old, existed := h.Insert(k, v)
							wantOld, wantEx := model.Insert(k, v)
							if existed != wantEx || (existed && old != wantOld) {
								t.Errorf("thread %d op %d Insert(%d,%d) = (%d,%v), model (%d,%v)",
									ti, i, k, v, old, existed, wantOld, wantEx)
								return
							}
						case 3, 4:
							old, existed := h.Delete(k)
							wantOld, wantEx := model.Delete(k)
							if existed != wantEx || (existed && old != wantOld) {
								t.Errorf("thread %d op %d Delete(%d) = (%d,%v), model (%d,%v)",
									ti, i, k, old, existed, wantOld, wantEx)
								return
							}
						case 5, 6:
							got, found := h.Search(k)
							want, ok := model.Search(k)
							if found != ok || (found && got != want) {
								t.Errorf("thread %d op %d Search(%d) = (%d,%v), model (%d,%v)",
									ti, i, k, got, found, want, ok)
								return
							}
						case 7:
							// A window inside the thread's own range: other
							// threads' keys are outside it by construction,
							// so the result must equal the model exactly
							// even mid-contention (and on sharded combos the
							// window can still straddle shard boundaries).
							lo := base + uint64(rng.Intn(perThread))
							hi := lo + uint64(rng.Intn(perThread))
							if end := base + perThread; hi > end {
								hi = end
							}
							out := h.RangeQuery(lo, hi, nil)
							wantKeys, wantVals := model.RangeQuery(lo, hi)
							if len(out) != len(wantKeys) {
								t.Errorf("thread %d op %d RQ[%d,%d): %d pairs, model %d",
									ti, i, lo, hi, len(out), len(wantKeys))
								return
							}
							for j, kv := range out {
								if kv.Key != wantKeys[j] || kv.Val != wantVals[j] {
									t.Errorf("thread %d op %d RQ[%d,%d)[%d] = (%d,%d), model (%d,%d)",
										ti, i, lo, hi, j, kv.Key, kv.Val, wantKeys[j], wantVals[j])
									return
								}
							}
						}
					}
					// Fold this thread's model into the shared expectation.
					sum, count := model.KeySum()
					mu.Lock()
					wantSum += sum
					wantCnt += count
					mu.Unlock()
				}(ti)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			sum, count := tree.KeySum()
			if sum != wantSum || count != wantCnt {
				t.Fatalf("KeySum = (%d,%d), models (%d,%d)", sum, count, wantSum, wantCnt)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := tree.Stats()
			if st.Ops.Fallback == 0 {
				t.Fatal("no operation completed on the fallback path: the sweep did not stress the lock under test")
			}
			if c.helpable {
				t.Logf("fallbacks=%d helps=%d", st.Ops.Fallback, st.Policy.Helps)
			}
		})
	}
}
