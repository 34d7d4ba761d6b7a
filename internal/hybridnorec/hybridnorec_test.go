package hybridnorec

import (
	"math/rand"
	"sync"
	"testing"

	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

// spurious is a TM configuration whose transactional accesses abort
// spuriously: every access when every is 1, each with probability
// 1/every otherwise.
func spurious(every int) htm.Config {
	r := fault.Rule{Point: fault.PointTxAccess, Every: 1}
	if every > 1 {
		r = fault.Rule{Point: fault.PointTxAccess, Prob: 1 / float64(every)}
	}
	return htm.Config{Faults: fault.New(uint64(every), r)}
}

func TestAtomicCounterHW(t *testing.T) {
	t.Parallel()
	tm := New(htm.Config{}, 0)
	th := tm.NewThread()
	var c htm.Word
	c.Bind(tm.inner.Clock())
	for i := 0; i < 100; i++ {
		hw := th.Atomic(func(tx *Tx) { tx.Write(&c, tx.Read(&c)+1) })
		if !hw {
			t.Fatal("uncontended transaction fell to the software path")
		}
	}
	if got := c.Get(nil); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

func TestSoftwarePathCommits(t *testing.T) {
	t.Parallel()
	// Force every hardware attempt to abort: all work lands on the
	// software NOrec path.
	tm := New(spurious(1), 3)
	th := tm.NewThread()
	var c htm.Word
	c.Bind(tm.inner.Clock())
	for i := 0; i < 50; i++ {
		if hw := th.Atomic(func(tx *Tx) { tx.Write(&c, tx.Read(&c)+1) }); hw {
			t.Fatal("hardware path committed despite forced aborts")
		}
	}
	if got := c.Get(nil); got != 50 {
		t.Fatalf("counter = %d, want 50", got)
	}
}

func TestConcurrentCounterMixedPaths(t *testing.T) {
	t.Parallel()
	tm := New(spurious(20), 4) // frequent software fallback
	var c htm.Word
	c.Bind(tm.inner.Clock())
	const goroutines = 6
	const perG = 1500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := tm.NewThread()
			for i := 0; i < perG; i++ {
				th.Atomic(func(tx *Tx) { tx.Write(&c, tx.Read(&c)+1) })
			}
		}()
	}
	wg.Wait()
	if got := c.Get(nil); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestSoftwareReadConsistency: software transactions must never observe
// x != y while writers keep them equal. Every transactional access aborts
// a hardware attempt with probability 1/4 and the budget is one attempt,
// so the reader and the writer both run on the NOrec software path —
// against each other's hardware commits too — which the test checks it
// did.
func TestSoftwareReadConsistency(t *testing.T) {
	t.Parallel()
	tm := New(spurious(4), 1)
	var x, y htm.Word
	x.Bind(tm.inner.Clock())
	y.Bind(tm.inner.Clock())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerSW int
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := tm.NewThread()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !th.Atomic(func(tx *Tx) {
				v := tx.Read(&x) + 1
				tx.Write(&x, v)
				tx.Write(&y, v)
			}) {
				writerSW++
			}
		}
	}()
	thR := tm.NewThread()
	readerSW := 0
	for i := 0; i < 20000; i++ {
		if !thR.Atomic(func(tx *Tx) {
			xv := tx.Read(&x)
			yv := tx.Read(&y)
			if xv != yv {
				t.Errorf("inconsistent snapshot: x=%d y=%d", xv, yv)
			}
		}) {
			readerSW++
		}
	}
	close(stop)
	wg.Wait()
	if readerSW == 0 || writerSW == 0 {
		t.Fatalf("software path ran %d times for the reader and %d for the writer; want both > 0", readerSW, writerSW)
	}
}

func TestBSTOracle(t *testing.T) {
	t.Parallel()
	tr := NewBST(spurious(100), 4) // exercise both paths
	h := tr.NewHandle()
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(200)) + 1
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			_, existed := h.Insert(k, v)
			if _, ok := oracle[k]; ok != existed {
				t.Fatalf("Insert(%d) existed=%v, oracle %v", k, existed, ok)
			}
			oracle[k] = v
		case 1:
			_, existed := h.Delete(k)
			if _, ok := oracle[k]; ok != existed {
				t.Fatalf("Delete(%d) existed=%v, oracle %v", k, existed, ok)
			}
			delete(oracle, k)
		case 2:
			v, found := h.Search(k)
			want, ok := oracle[k]
			if found != ok || (found && v != want) {
				t.Fatalf("Search(%d) = (%d,%v), oracle (%d,%v)", k, v, found, want, ok)
			}
		}
	}
	sum, count := tr.KeySum()
	var wantSum, wantCount uint64
	for k := range oracle {
		wantSum += k
		wantCount++
	}
	if sum != wantSum || count != wantCount {
		t.Fatalf("KeySum = (%d,%d), oracle (%d,%d)", sum, count, wantSum, wantCount)
	}
}

func TestBSTConcurrentKeySum(t *testing.T) {
	t.Parallel()
	tr := NewBST(spurious(200), 6)
	const goroutines = 4
	const perG = 2000
	sums := make([]int64, goroutines)
	counts := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tr.NewHandle()
			rng := rand.New(rand.NewSource(int64(g) + 31))
			for i := 0; i < perG; i++ {
				k := uint64(rng.Intn(128)) + 1
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
		t.Fatalf("key-sum check failed: tree (%d,%d), threads (%d,%d)",
			sum, count, wantSum, wantCount)
	}
}

func TestBSTRangeQuery(t *testing.T) {
	t.Parallel()
	tr := NewBST(htm.Config{}, 0)
	h := tr.NewHandle()
	for k := uint64(1); k <= 100; k++ {
		h.Insert(k, k*2)
	}
	out := h.RangeQuery(10, 20, nil)
	if len(out) != 10 {
		t.Fatalf("RQ returned %d pairs, want 10", len(out))
	}
	for i, kv := range out {
		if kv.Key != uint64(10+i) || kv.Val != kv.Key*2 {
			t.Fatalf("RQ[%d] = %+v", i, kv)
		}
	}
}
