package kcas

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

type box struct{ v uint64 }

func TestApplyBasic(t *testing.T) {
	t.Parallel()
	var a, b Cell[box]
	x0, y0 := &box{1}, &box{2}
	a.Init(x0)
	b.Init(y0)
	x1, y1 := &box{10}, &box{20}
	if !Apply([]*Cell[box]{&a, &b}, []*box{x0, y0}, []*box{x1, y1}) {
		t.Fatal("2-CAS with correct expectations failed")
	}
	if a.Read() != x1 || b.Read() != y1 {
		t.Fatal("2-CAS did not publish new values")
	}
	// Stale expectations must fail without changing anything.
	if Apply([]*Cell[box]{&a, &b}, []*box{x0, y0}, []*box{&box{0}, &box{0}}) {
		t.Fatal("2-CAS with stale expectations succeeded")
	}
	if a.Read() != x1 || b.Read() != y1 {
		t.Fatal("failed 2-CAS changed memory")
	}
}

func TestApplyPartialOverlapAtomicity(t *testing.T) {
	t.Parallel()
	// Concurrent 2-CAS chains over a shared middle cell: the sum of
	// successful operations must equal the final counters.
	var a, b, c Cell[box]
	a.Init(&box{0})
	b.Init(&box{0})
	c.Init(&box{0})
	var wg sync.WaitGroup
	succ := make([]uint64, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Thread 0 increments (a,b) atomically; thread 1 (b,c).
			var c1, c2 *Cell[box]
			if g == 0 {
				c1, c2 = &a, &b
			} else {
				c1, c2 = &b, &c
			}
			for i := 0; i < 5000; i++ {
				for {
					v1, v2 := c1.Read(), c2.Read()
					if Apply([]*Cell[box]{c1, c2}, []*box{v1, v2},
						[]*box{{v1.v + 1}, {v2.v + 1}}) {
						succ[g]++
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	av, bv, cv := a.Read().v, b.Read().v, c.Read().v
	if av != succ[0] || cv != succ[1] || bv != succ[0]+succ[1] {
		t.Fatalf("torn k-CAS: a=%d b=%d c=%d, succ=%v", av, bv, cv, succ)
	}
}

func TestReadHelpsInFlight(t *testing.T) {
	t.Parallel()
	// Manually install a descriptor (simulating a stalled thread) and
	// check that Read completes the operation.
	var a Cell[box]
	x0 := &box{5}
	a.Init(x0)
	x1 := &box{6}
	d := &desc[box]{n: 1}
	d.status.Store(statusUndecided)
	d.cells[0] = &a
	d.exp[0] = x0
	d.new[0] = x1
	e := a.e.Get(nil)
	if !a.e.CAS(nil, e, &entry[box]{v: x0, d: d, idx: 0}) {
		t.Fatal("manual install failed")
	}
	if got := a.Read(); got != x1 {
		t.Fatalf("Read returned %v, want helped value %v", got, x1)
	}
	if d.status.Load() != statusSucceeded {
		t.Fatal("descriptor not completed by reader")
	}
}

func TestReadNoHelpSeesThroughDescriptor(t *testing.T) {
	t.Parallel()
	var a Cell[box]
	x0 := &box{5}
	a.Init(x0)
	d := &desc[box]{n: 1}
	d.status.Store(statusUndecided)
	d.cells[0] = &a
	d.exp[0] = x0
	d.new[0] = &box{6}
	e := a.e.Get(nil)
	a.e.CAS(nil, e, &entry[box]{v: x0, d: d, idx: 0})
	if got := a.ReadNoHelp(); got != x0 {
		t.Fatalf("ReadNoHelp = %v, want pre-operation value %v", got, x0)
	}
	if d.status.Load() != statusUndecided {
		t.Fatal("ReadNoHelp must not help")
	}
}

var listAlgorithms = engine.Algorithms

func TestListSequentialOracle(t *testing.T) {
	t.Parallel()
	for _, alg := range listAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			l := NewList(ListConfig{Algorithm: alg})
			h := l.NewHandle()
			oracle := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 4000; i++ {
				k := uint64(rng.Intn(100)) + 1
				switch rng.Intn(3) {
				case 0:
					v := rng.Uint64()
					_, existed := h.Insert(k, v)
					if _, ok := oracle[k]; ok != existed {
						t.Fatalf("Insert(%d) existed=%v", k, existed)
					}
					oracle[k] = v
				case 1:
					_, existed := h.Delete(k)
					if _, ok := oracle[k]; ok != existed {
						t.Fatalf("Delete(%d) existed=%v", k, existed)
					}
					delete(oracle, k)
				case 2:
					v, found := h.Search(k)
					want, ok := oracle[k]
					if found != ok || (found && v != want) {
						t.Fatalf("Search(%d) = (%d,%v) want (%d,%v)", k, v, found, want, ok)
					}
				}
			}
			sum, count := l.KeySum()
			var wantSum, wantCount uint64
			for k := range oracle {
				wantSum += k
				wantCount++
			}
			if sum != wantSum || count != wantCount {
				t.Fatalf("KeySum = (%d,%d), oracle (%d,%d)", sum, count, wantSum, wantCount)
			}
		})
	}
}

func TestListConcurrentKeySum(t *testing.T) {
	t.Parallel()
	for _, alg := range listAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			testListKeySum(t, NewList(ListConfig{Algorithm: alg}), 4, 2000)
		})
	}
}

// TestListTLELockedBodies: with every transactional access aborting for
// capacity, every TLE operation runs its Fast body under the lock with a
// nil tx — the list's one TLE body — and completes there, with a key sum
// that agrees with the threads' tallies.
func TestListTLELockedBodies(t *testing.T) {
	t.Parallel()
	l := NewList(ListConfig{Algorithm: engine.AlgTLE, HTM: htm.Config{Faults: fault.New(0,
		fault.Rule{Point: fault.PointTxAccess, Every: 1, Cause: uint8(htm.CauseCapacity)})}})
	const goroutines, perG = 4, 1000
	testListKeySum(t, l, goroutines, perG)
	if st := l.OpStats(); st.Fast != 0 || st.Fallback != goroutines*perG || st.FallbackAcquisitions != st.Fallback {
		t.Fatalf("stats %+v: want every operation completed under the lock", st)
	}
}

// testListKeySum runs random inserts and deletes over 64 keys from
// several goroutines, each with a range query now and then, and checks
// the list's key sum against the goroutines' tallies and every range
// query's order.
func testListKeySum(t *testing.T, l *List, goroutines, perG int) {
	t.Helper()
	sums := make([]int64, goroutines)
	counts := make([]int64, goroutines)
	var unordered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := l.NewHandle()
			rng := rand.New(rand.NewSource(int64(g)*37 + 5))
			var out []dict.KV
			for i := 0; i < perG; i++ {
				k := uint64(rng.Intn(64)) + 1
				switch {
				case i%50 == 49:
					out = h.RangeQuery(k, k+16, out[:0])
					for j := 1; j < len(out); j++ {
						if out[j-1].Key >= out[j].Key {
							unordered.Add(1)
						}
					}
				case rng.Intn(2) == 0:
					if _, existed := h.Insert(k, k); !existed {
						sums[g] += int64(k)
						counts[g]++
					}
				default:
					if _, existed := h.Delete(k); existed {
						sums[g] -= int64(k)
						counts[g]--
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := unordered.Load(); n != 0 {
		t.Fatalf("%d range queries returned keys out of order", n)
	}
	var wantSum, wantCount int64
	for g := range sums {
		wantSum += sums[g]
		wantCount += counts[g]
	}
	sum, count := l.KeySum()
	if int64(sum) != wantSum || int64(count) != wantCount {
		t.Fatalf("key-sum: list (%d,%d), threads (%d,%d)", sum, count, wantSum, wantCount)
	}
}

func TestListRangeQuery(t *testing.T) {
	t.Parallel()
	l := NewList(ListConfig{})
	h := l.NewHandle()
	for k := uint64(1); k <= 50; k++ {
		h.Insert(k, k*3)
	}
	out := h.RangeQuery(10, 20, nil)
	if len(out) != 10 {
		t.Fatalf("RQ returned %d pairs, want 10", len(out))
	}
	for i, kv := range out {
		if kv.Key != uint64(10+i) || kv.Val != kv.Key*3 {
			t.Fatalf("RQ[%d] = %+v", i, kv)
		}
	}
	var _ []dict.KV = out
}

func TestListForcedFallback(t *testing.T) {
	t.Parallel()
	// Every transaction aborts: all updates run through software k-CAS.
	l := NewList(ListConfig{Algorithm: engine.AlgThreePath,
		HTM: htm.Config{Faults: fault.New(0, fault.Rule{Point: fault.PointTxAccess, Every: 1})}})
	h := l.NewHandle()
	for k := uint64(1); k <= 100; k++ {
		h.Insert(k, k)
	}
	for k := uint64(1); k <= 100; k += 2 {
		if _, ok := h.Delete(k); !ok {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if _, count := l.KeySum(); count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
	if st := l.OpStats(); st.Fast != 0 || st.Middle != 0 {
		t.Fatalf("operations completed on HTM paths despite forced aborts: %+v", st)
	}
}
