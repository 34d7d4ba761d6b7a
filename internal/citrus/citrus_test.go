package citrus

import (
	"math/rand"
	"sync"
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

var algorithms = engine.Algorithms

func TestSequentialOracle(t *testing.T) {
	t.Parallel()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg})
			h := tr.NewHandle()
			oracle := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 6000; i++ {
				k := uint64(rng.Intn(200)) + 1
				switch rng.Intn(4) {
				case 0, 1:
					v := rng.Uint64()
					_, existed := h.Insert(k, v)
					if _, ok := oracle[k]; ok != existed {
						t.Fatalf("op %d Insert(%d) existed=%v", i, k, existed)
					}
					oracle[k] = v
				case 2:
					_, existed := h.Delete(k)
					if _, ok := oracle[k]; ok != existed {
						t.Fatalf("op %d Delete(%d) existed=%v", i, k, existed)
					}
					delete(oracle, k)
				case 3:
					v, found := h.Search(k)
					want, ok := oracle[k]
					if found != ok || (found && v != want) {
						t.Fatalf("op %d Search(%d)=(%d,%v) want (%d,%v)", i, k, v, found, want, ok)
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			sum, count := tr.KeySum()
			var wantSum, wantCount uint64
			for k := range oracle {
				wantSum += k
				wantCount++
			}
			if sum != wantSum || count != wantCount {
				t.Fatalf("KeySum (%d,%d), oracle (%d,%d)", sum, count, wantSum, wantCount)
			}
		})
	}
}

// TestTwoChildDeletes drives the successor-replacement path (the one
// that needs rcu.Synchronize on the fallback path) deterministically.
func TestTwoChildDeletes(t *testing.T) {
	t.Parallel()
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath, engine.AlgTLE} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg})
			h := tr.NewHandle()
			// Build a bushy tree, then delete internal nodes (which have
			// two children) in an order that exercises replacements.
			order := []uint64{50, 25, 75, 12, 37, 62, 87, 6, 18, 31, 43, 56, 68, 81, 93}
			for _, k := range order {
				h.Insert(k, k*10)
			}
			for _, k := range []uint64{50, 25, 75, 12, 37} { // all have two children
				if v, ok := h.Delete(k); !ok || v != k*10 {
					t.Fatalf("Delete(%d) = (%d,%v)", k, v, ok)
				}
				if _, found := h.Search(k); found {
					t.Fatalf("key %d still visible after delete", k)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			// Successor keys must have survived the replacements.
			for _, k := range []uint64{56, 31, 81, 18, 43} {
				if v, ok := h.Search(k); !ok || v != k*10 {
					t.Fatalf("successor key %d lost: (%d,%v)", k, v, ok)
				}
			}
		})
	}
}

func TestConcurrentKeySum(t *testing.T) {
	t.Parallel()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := New(Config{Algorithm: alg})
			const goroutines = 4
			const perG = 2500
			sums := make([]int64, goroutines)
			counts := make([]int64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := tr.NewHandle()
					rng := rand.New(rand.NewSource(int64(g)*911 + 3))
					for i := 0; i < perG; i++ {
						k := uint64(rng.Intn(256)) + 1
						if rng.Intn(2) == 0 {
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
					}
				}(g)
			}
			wg.Wait()
			var wantSum, wantCount int64
			for g := range sums {
				wantSum += sums[g]
				wantCount += counts[g]
			}
			sum, count := tr.KeySum()
			if int64(sum) != wantSum || int64(count) != wantCount {
				t.Fatalf("key-sum: tree (%d,%d), threads (%d,%d)", sum, count, wantSum, wantCount)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentWithSearchers(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Permanent keys that updaters never touch: searchers must always
	// find them regardless of surrounding churn (exercises the
	// successor-replacement visibility property).
	hSetup := tr.NewHandle()
	for k := uint64(1000); k < 1032; k++ {
		hSetup.Insert(k, k)
	}
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := tr.NewHandle()
		for i := 0; i < 30000; i++ {
			k := uint64(1000 + i%32)
			if v, ok := h.Search(k); !ok || v != k {
				t.Errorf("permanent key %d not found: (%d,%v)", k, v, ok)
				break
			}
		}
		close(stop)
	}()
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForcedFallbackSynchronize(t *testing.T) {
	t.Parallel()
	// Every transaction aborts: deletes run the full CITRUS fallback
	// protocol including rcu.Synchronize, concurrently.
	tr := New(Config{Algorithm: engine.AlgThreePath,
		HTM: htm.Config{Faults: fault.New(0, fault.Rule{Point: fault.PointTxAccess, Every: 1})}})
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tr.NewHandle()
			rng := rand.New(rand.NewSource(int64(g) + 77))
			for i := 0; i < 1200; i++ {
				k := uint64(rng.Intn(64)) + 1
				if rng.Intn(2) == 0 {
					h.Insert(k, k)
				} else {
					h.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := tr.OpStats(); st.Fast != 0 || st.Middle != 0 {
		t.Fatalf("HTM paths used despite forced aborts: %+v", st)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeQuery(t *testing.T) {
	t.Parallel()
	tr := New(Config{})
	h := tr.NewHandle()
	for k := uint64(1); k <= 100; k++ {
		h.Insert(k, k+5)
	}
	out := h.RangeQuery(40, 60, nil)
	if len(out) != 20 {
		t.Fatalf("RQ returned %d pairs, want 20", len(out))
	}
	for i, kv := range out {
		if kv.Key != uint64(40+i) || kv.Val != kv.Key+5 {
			t.Fatalf("RQ[%d] = %+v", i, kv)
		}
	}
}
