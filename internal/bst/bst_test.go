package bst

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// algorithms under test everywhere.
var algorithms = engine.Algorithms

func TestEmptyTree(t *testing.T) {
	t.Parallel()
	tr := New(Config{})
	h := tr.NewHandle()
	if _, found := h.Search(42); found {
		t.Fatal("found key in empty tree")
	}
	if _, existed := h.Delete(42); existed {
		t.Fatal("deleted key from empty tree")
	}
	if out := h.RangeQuery(0, 100, nil); len(out) != 0 {
		t.Fatalf("range query on empty tree returned %v", out)
	}
	if sum, count := tr.KeySum(); sum != 0 || count != 0 {
		t.Fatalf("KeySum = %d,%d want 0,0", sum, count)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOracle(t *testing.T) {
	t.Parallel()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg})
			h := tr.NewHandle()
			oracle := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(7))
			const keyRange = 200
			for i := 0; i < 8000; i++ {
				k := uint64(rng.Intn(keyRange))
				switch rng.Intn(4) {
				case 0, 1:
					v := rng.Uint64()
					old, existed := h.Insert(k, v)
					wantOld, wantExisted := oracle[k], false
					if _, ok := oracle[k]; ok {
						wantExisted = true
					}
					if existed != wantExisted || (existed && old != wantOld) {
						t.Fatalf("Insert(%d): got (%d,%v) want (%d,%v)",
							k, old, existed, wantOld, wantExisted)
					}
					oracle[k] = v
				case 2:
					old, existed := h.Delete(k)
					wantOld, wantExisted := oracle[k], false
					if _, ok := oracle[k]; ok {
						wantExisted = true
					}
					if existed != wantExisted || (existed && old != wantOld) {
						t.Fatalf("Delete(%d): got (%d,%v) want (%d,%v)",
							k, old, existed, wantOld, wantExisted)
					}
					delete(oracle, k)
				case 3:
					v, found := h.Search(k)
					wantV, wantFound := oracle[k], false
					if _, ok := oracle[k]; ok {
						wantFound = true
					}
					if found != wantFound || (found && v != wantV) {
						t.Fatalf("Search(%d): got (%d,%v) want (%d,%v)",
							k, v, found, wantV, wantFound)
					}
				}
				if i%1000 == 999 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			}
			verifyAgainstOracle(t, tr, oracle)
		})
	}
}

func verifyAgainstOracle(t *testing.T, tr *Tree, oracle map[uint64]uint64) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var wantSum, wantCount uint64
	for k := range oracle {
		wantSum += k
		wantCount++
	}
	sum, count := tr.KeySum()
	if sum != wantSum || count != wantCount {
		t.Fatalf("KeySum = (%d,%d), oracle (%d,%d)", sum, count, wantSum, wantCount)
	}
	// A full range query must reproduce the oracle exactly.
	h := tr.NewHandle()
	out := h.RangeQuery(0, dict.MaxKey, nil)
	if uint64(len(out)) != wantCount {
		t.Fatalf("full RQ returned %d pairs, want %d", len(out), wantCount)
	}
	for i, kv := range out {
		if i > 0 && out[i-1].Key >= kv.Key {
			t.Fatalf("RQ out of order at %d: %d >= %d", i, out[i-1].Key, kv.Key)
		}
		if want, ok := oracle[kv.Key]; !ok || want != kv.Val {
			t.Fatalf("RQ pair (%d,%d) disagrees with oracle (%d,%v)",
				kv.Key, kv.Val, want, ok)
		}
	}
}

func TestDeleteToEmptyAndReinsert(t *testing.T) {
	t.Parallel()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg})
			h := tr.NewHandle()
			for round := 0; round < 50; round++ {
				// Exercises the gp==nil delete case (leaf at depth 1).
				h.Insert(5, 50)
				h.Insert(3, 30)
				if _, ok := h.Delete(5); !ok {
					t.Fatal("delete 5 failed")
				}
				if _, ok := h.Delete(3); !ok {
					t.Fatal("delete 3 failed")
				}
				if _, found := h.Search(3); found {
					t.Fatal("key 3 survived delete")
				}
				if sum, count := tr.KeySum(); sum != 0 || count != 0 {
					t.Fatalf("tree not empty: sum=%d count=%d", sum, count)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestQuickCheckAgainstMap(t *testing.T) {
	t.Parallel()
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			f := func(ops []uint32) bool {
				tr := New(Config{Algorithm: alg})
				h := tr.NewHandle()
				oracle := map[uint64]uint64{}
				for _, op := range ops {
					k := uint64(op % 64)
					v := uint64(op >> 8)
					switch (op >> 6) % 3 {
					case 0:
						h.Insert(k, v)
						oracle[k] = v
					case 1:
						h.Delete(k)
						delete(oracle, k)
					case 2:
						got, found := h.Search(k)
						want, ok := oracle[k]
						if found != ok || (found && got != want) {
							return false
						}
					}
				}
				if err := tr.CheckInvariants(); err != nil {
					return false
				}
				sum, count := tr.KeySum()
				var wantSum, wantCount uint64
				for k := range oracle {
					wantSum += k
					wantCount++
				}
				return sum == wantSum && count == wantCount
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentKeySum is the paper's Section 7.1 validation: each
// thread tracks the sum of keys it successfully inserted minus those it
// deleted; the total must match the final tree contents.
func TestConcurrentKeySum(t *testing.T) {
	t.Parallel()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			testConcurrentKeySum(t, Config{Algorithm: alg}, 4, 4000, 128)
		})
	}
}

func TestConcurrentKeySumSearchOutsideTx(t *testing.T) {
	t.Parallel()
	testConcurrentKeySum(t, Config{
		Algorithm:       engine.AlgThreePath,
		SearchOutsideTx: true,
	}, 4, 4000, 128)
}

func TestConcurrentKeySumTinyKeyRange(t *testing.T) {
	t.Parallel()
	// Hammers the root / gp==nil special cases under contention.
	for _, alg := range []engine.Algorithm{engine.AlgThreePath, engine.AlgTwoPathConc, engine.AlgTLE} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			testConcurrentKeySum(t, Config{Algorithm: alg}, 4, 3000, 4)
		})
	}
}

func TestConcurrentKeySumWithSpuriousAborts(t *testing.T) {
	t.Parallel()
	// Heavy spurious aborts push operations onto middle and fallback
	// paths, exercising cross-path interleavings.
	testConcurrentKeySum(t, Config{
		Algorithm: engine.AlgThreePath,
		HTM:       txAborts(50, htm.CauseSpurious),
	}, 4, 3000, 64)
}

func testConcurrentKeySum(t *testing.T, cfg Config, goroutines, opsPerG, keyRange int) {
	t.Helper()
	tr := New(cfg)
	sums := make([]int64, goroutines)
	counts := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tr.NewHandle()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for i := 0; i < opsPerG; i++ {
				k := uint64(rng.Intn(keyRange)) + 1
				if rng.Intn(2) == 0 {
					if _, existed := h.Insert(k, k*10); !existed {
						sums[g] += int64(k)
						counts[g]++
					}
				} else {
					if _, existed := h.Delete(k); existed {
						sums[g] -= int64(k)
						counts[g]--
					}
				}
			}
		}(g)
	}
	wg.Wait()

	var wantSum, wantCount int64
	for g := 0; g < goroutines; g++ {
		wantSum += sums[g]
		wantCount += counts[g]
	}
	sum, count := tr.KeySum()
	if int64(sum) != wantSum || int64(count) != wantCount {
		t.Fatalf("key-sum check failed: tree (%d,%d), threads (%d,%d)",
			sum, count, wantSum, wantCount)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Engine().Stats().Total(); got != uint64(goroutines*opsPerG) {
		t.Fatalf("engine completed %d ops, want %d", got, goroutines*opsPerG)
	}
}

// TestConcurrentRangeQueries mixes updaters with a range-query thread
// and checks the structural properties every linearizable RQ must have.
func TestConcurrentRangeQueries(t *testing.T) {
	t.Parallel()
	for _, alg := range []engine.Algorithm{engine.AlgThreePath, engine.AlgTLE, engine.AlgTwoPathConc} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := tr.NewHandle()
					rng := rand.New(rand.NewSource(int64(g)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := uint64(rng.Intn(512)) + 1
						if rng.Intn(2) == 0 {
							h.Insert(k, k)
						} else {
							h.Delete(k)
						}
					}
				}(g)
			}
			h := tr.NewHandle()
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 300; i++ {
				lo := uint64(rng.Intn(512))
				hi := lo + uint64(rng.Intn(128))
				out := h.RangeQuery(lo, hi, nil)
				for j, kv := range out {
					if kv.Key < lo || kv.Key >= hi {
						t.Errorf("RQ[%d,%d) returned out-of-range key %d", lo, hi, kv.Key)
					}
					if kv.Key != kv.Val { // updaters always insert val == key
						t.Errorf("RQ returned mismatched pair (%d,%d)", kv.Key, kv.Val)
					}
					if j > 0 && out[j-1].Key >= kv.Key {
						t.Errorf("RQ result unsorted")
					}
				}
			}
			close(stop)
			wg.Wait()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHeavyWorkloadUsesFallback reproduces the mechanism behind the
// paper's heavy workloads: with a small transactional capacity, large
// range queries cannot commit on the HTM paths and must complete on the
// fallback path.
func TestHeavyWorkloadUsesFallback(t *testing.T) {
	t.Parallel()
	tr := New(Config{
		Algorithm: engine.AlgThreePath,
		// A POWER8-sized footprint: 64 lines of 8 words.
		HTM: htm.Config{ReadCapacity: 512, WriteCapacity: 512},
	})
	h := tr.NewHandle()
	for k := uint64(1); k <= 2000; k++ {
		h.Insert(k, k)
	}
	before := tr.Engine().Stats()
	out := h.RangeQuery(1, 2001, nil)
	if len(out) != 2000 {
		t.Fatalf("RQ returned %d keys, want 2000", len(out))
	}
	after := tr.Engine().Stats()
	if after.Fallback != before.Fallback+1 {
		t.Fatalf("large RQ completed on an HTM path (fallback %d -> %d); "+
			"capacity model not effective", before.Fallback, after.Fallback)
	}
	if after.Aborts[htm.PathFast][htm.CauseCapacity] == 0 {
		t.Fatal("no capacity abort recorded for the oversized range query")
	}
}

// TestRangeQuerySortedUnderPrefill checks RQ pruning correctness on a
// broad prefilled tree for every algorithm.
func TestRangeQueryPruning(t *testing.T) {
	t.Parallel()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg})
			h := tr.NewHandle()
			var want []uint64
			for k := uint64(0); k < 300; k += 3 {
				h.Insert(k, k+1)
				want = append(want, k)
			}
			out := h.RangeQuery(50, 200, nil)
			var wantInRange []uint64
			for _, k := range want {
				if k >= 50 && k < 200 {
					wantInRange = append(wantInRange, k)
				}
			}
			if len(out) != len(wantInRange) {
				t.Fatalf("RQ returned %d keys, want %d", len(out), len(wantInRange))
			}
			for i, kv := range out {
				if kv.Key != wantInRange[i] || kv.Val != kv.Key+1 {
					t.Fatalf("RQ[%d] = (%d,%d), want (%d,%d)",
						i, kv.Key, kv.Val, wantInRange[i], wantInRange[i]+1)
				}
			}
			if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Key < out[j].Key }) {
				t.Fatal("RQ result unsorted")
			}
		})
	}
}

func TestPathUsageLightWorkload(t *testing.T) {
	t.Parallel()
	// In an uncontended light workload almost everything must complete
	// on the fast path (paper Section 7.2 reports >= 86%, avg 97%).
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.NewHandle()
	rng := rand.New(rand.NewSource(3))
	const ops = 5000
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(1000)) + 1
		if rng.Intn(2) == 0 {
			h.Insert(k, k)
		} else {
			h.Delete(k)
		}
	}
	s := tr.Engine().Stats()
	if frac := float64(s.Fast) / float64(s.Total()); frac < 0.95 {
		t.Fatalf("fast-path completion fraction = %.3f, want >= 0.95 single-threaded", frac)
	}
}
