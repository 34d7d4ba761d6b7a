package abtree

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

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
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidDegreeBoundsPanics(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{{A: 6, B: 10}, {A: 1, B: 4}, {B: MaxB + 1}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "invalid degree bounds") {
					t.Errorf("New(a=%d b=%d) recovered %q, want an invalid degree bounds panic", cfg.A, cfg.B, msg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSequentialOracle(t *testing.T) {
	t.Parallel()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg, A: 2, B: 4}) // small nodes stress rebalancing
			h := tr.NewHandle()
			oracle := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(11))
			const keyRange = 300
			for i := 0; i < 9000; i++ {
				k := uint64(rng.Intn(keyRange)) + 1
				switch rng.Intn(4) {
				case 0, 1:
					v := rng.Uint64()
					old, existed := h.Insert(k, v)
					wantOld, wantExisted := oracle[k], oracleHas(oracle, k)
					if existed != wantExisted || (existed && old != wantOld) {
						t.Fatalf("op %d Insert(%d): got (%d,%v) want (%d,%v)",
							i, k, old, existed, wantOld, wantExisted)
					}
					oracle[k] = v
				case 2:
					old, existed := h.Delete(k)
					wantOld, wantExisted := oracle[k], oracleHas(oracle, k)
					if existed != wantExisted || (existed && old != wantOld) {
						t.Fatalf("op %d Delete(%d): got (%d,%v) want (%d,%v)",
							i, k, old, existed, wantOld, wantExisted)
					}
					delete(oracle, k)
				case 3:
					v, found := h.Search(k)
					wantV, wantFound := oracle[k], oracleHas(oracle, k)
					if found != wantFound || (found && v != wantV) {
						t.Fatalf("op %d Search(%d): got (%d,%v) want (%d,%v)",
							i, k, v, found, wantV, wantFound)
					}
				}
				if i%1500 == 1499 {
					if err := tr.CheckInvariants(true); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			verifyAgainstOracle(t, tr, oracle)
		})
	}
}

func oracleHas(m map[uint64]uint64, k uint64) bool {
	_, ok := m[k]
	return ok
}

func verifyAgainstOracle(t *testing.T, tr *Tree, oracle map[uint64]uint64) {
	t.Helper()
	if err := tr.CheckInvariants(true); err != nil {
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
	h := tr.NewHandle()
	out := h.RangeQuery(0, dict.MaxKey, nil)
	if uint64(len(out)) != wantCount {
		t.Fatalf("full RQ returned %d pairs, want %d", len(out), wantCount)
	}
	for i, kvp := range out {
		if i > 0 && out[i-1].Key >= kvp.Key {
			t.Fatalf("RQ out of order at %d", i)
		}
		if want, ok := oracle[kvp.Key]; !ok || want != kvp.Val {
			t.Fatalf("RQ pair (%d,%d) disagrees with oracle", kvp.Key, kvp.Val)
		}
	}
}

// TestAscendingInsertDescendingDelete drives long split chains and then
// long join/collapse chains with default degrees.
func TestAscendingInsertDescendingDelete(t *testing.T) {
	t.Parallel()
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath, engine.AlgTLE} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg})
			h := tr.NewHandle()
			const n = 3000
			for k := uint64(1); k <= n; k++ {
				h.Insert(k, k*2)
			}
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatalf("after inserts: %v", err)
			}
			if sum, count := tr.KeySum(); count != n || sum != n*(n+1)/2 {
				t.Fatalf("after inserts: sum=%d count=%d", sum, count)
			}
			for k := uint64(n); k >= 1; k-- {
				if _, ok := h.Delete(k); !ok {
					t.Fatalf("Delete(%d) missed", k)
				}
			}
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatalf("after deletes: %v", err)
			}
			if _, count := tr.KeySum(); count != 0 {
				t.Fatalf("tree not empty: %d keys", count)
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
				tr := New(Config{Algorithm: alg, A: 2, B: 4})
				h := tr.NewHandle()
				oracle := map[uint64]uint64{}
				for _, op := range ops {
					k := uint64(op%64) + 1
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
				if err := tr.CheckInvariants(true); err != nil {
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
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentKeySum is the paper's Section 7.1 validation under every
// algorithm.
func TestConcurrentKeySum(t *testing.T) {
	t.Parallel()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			testConcurrentKeySum(t, Config{Algorithm: alg}, 4, 3000, 512)
		})
	}
}

func TestConcurrentKeySumSmallNodes(t *testing.T) {
	t.Parallel()
	// a=2, b=4 with a tiny key range maximizes rebalancing contention.
	for _, alg := range []engine.Algorithm{engine.AlgThreePath, engine.AlgTwoPathConc, engine.AlgNonHTM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			testConcurrentKeySum(t, Config{Algorithm: alg, A: 2, B: 4}, 4, 2500, 48)
		})
	}
}

func TestConcurrentKeySumWithSpuriousAborts(t *testing.T) {
	t.Parallel()
	testConcurrentKeySum(t, Config{
		Algorithm: engine.AlgThreePath,
		HTM:       txAborts(50, htm.CauseSpurious),
	}, 4, 2000, 128)
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
			rng := rand.New(rand.NewSource(int64(g)*104729 + 17))
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
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRangeQueries(t *testing.T) {
	t.Parallel()
	for _, alg := range []engine.Algorithm{engine.AlgThreePath, engine.AlgTLE} {
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
						k := uint64(rng.Intn(2048)) + 1
						if rng.Intn(2) == 0 {
							h.Insert(k, k)
						} else {
							h.Delete(k)
						}
					}
				}(g)
			}
			h := tr.NewHandle()
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 200; i++ {
				lo := uint64(rng.Intn(2048))
				hi := lo + uint64(rng.Intn(512))
				out := h.RangeQuery(lo, hi, nil)
				for j, kvp := range out {
					if kvp.Key < lo || kvp.Key >= hi {
						t.Errorf("RQ[%d,%d) returned out-of-range key %d", lo, hi, kvp.Key)
					}
					if kvp.Key != kvp.Val {
						t.Errorf("RQ returned mismatched pair (%d,%d)", kvp.Key, kvp.Val)
					}
					if j > 0 && out[j-1].Key >= kvp.Key {
						t.Errorf("RQ result unsorted")
					}
				}
			}
			close(stop)
			wg.Wait()
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHeavyWorkloadUsesFallback: oversized range queries must overflow
// the HTM capacity — here a POWER8-sized one, 64 lines of 8 words — and
// complete on the fallback path.
func TestHeavyWorkloadUsesFallback(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath, HTM: htm.Config{ReadCapacity: 512, WriteCapacity: 512}})
	h := tr.NewHandle()
	for k := uint64(1); k <= 3000; k++ {
		h.Insert(k, k)
	}
	before := tr.OpStats()
	out := h.RangeQuery(1, 3001, nil)
	if len(out) != 3000 {
		t.Fatalf("RQ returned %d keys, want 3000", len(out))
	}
	after := tr.OpStats()
	if after.Fallback != before.Fallback+1 {
		t.Fatalf("large RQ did not complete on the fallback path (%d -> %d)",
			before.Fallback, after.Fallback)
	}
}

func TestPathUsageLightWorkload(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.NewHandle()
	rng := rand.New(rand.NewSource(3))
	const ops = 5000
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(100000)) + 1
		if rng.Intn(2) == 0 {
			h.Insert(k, k)
		} else {
			h.Delete(k)
		}
	}
	s := tr.OpStats()
	if frac := float64(s.Fast) / float64(s.Total()); frac < 0.95 {
		t.Fatalf("fast-path completion fraction = %.3f, want >= 0.95 single-threaded", frac)
	}
}

// TestLeafNodeSizes verifies in-place leaf layout after fast-path
// operations: sorted, correctly sized, values aligned.
func TestLeafLayoutAfterInPlaceOps(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.NewHandle()
	keys := rand.New(rand.NewSource(1)).Perm(64)
	for _, k := range keys {
		h.Insert(uint64(k)+1, uint64(k*7))
	}
	for _, k := range keys {
		if v, ok := h.Search(uint64(k) + 1); !ok || v != uint64(k*7) {
			t.Fatalf("Search(%d) = %d,%v", k+1, v, ok)
		}
	}
	for i, k := range keys {
		if i%2 == 0 {
			h.Delete(uint64(k) + 1)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		_, ok := h.Search(uint64(k) + 1)
		if want := i%2 != 0; ok != want {
			t.Fatalf("Search(%d) present=%v, want %v", k+1, ok, want)
		}
	}
}
