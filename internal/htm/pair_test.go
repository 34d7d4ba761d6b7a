package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPairNonTxBasics(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	var p Pair
	if a, b := p.Get(nil); a != 0 || b != 0 {
		t.Fatalf("zero Pair = (%d,%d)", a, b)
	}
	p.Init(10, 2)
	if a, b := p.Get(nil); a != 10 || b != 2 {
		t.Fatalf("Pair = (%d,%d) after Init, want (10,2)", a, b)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Set on an unbound Pair did not panic")
			}
		}()
		p.Set(nil, 1, 1)
	}()
	p.Bind(tm.Clock())
	before := tm.ClockValue()
	p.Set(nil, 16, 2)
	if tm.ClockValue() == before {
		t.Fatal("non-transactional Set did not advance the clock")
	}
	if a, b := p.Get(nil); a != 16 || b != 2 {
		t.Fatalf("Pair = (%d,%d), want (16,2)", a, b)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("rebinding a Pair to another clock did not panic")
			}
		}()
		p.Bind(New(Config{}).Clock())
	}()
}

// TestPairOpacity: writers add (+k, +1) to one Pair transactionally,
// reading it and setting the sum, so a == k*b in every committed state
// of it, and set another to (x, pairF(x)), so b == pairF(a) there.
// Transactional and non-transactional readers must see exactly that
// from one Get — never the two halves of different commits — while a
// third party sets the second cell outside any transaction (strong
// atomicity).
func TestPairOpacity(t *testing.T) {
	t.Parallel()
	pairF := func(a uint64) uint64 { return a*0x9e3779b97f4a7c15 + 1 }
	const (
		k       = 7
		writers = 2
		perW    = 3000
		nonTx   = 3000
	)
	tm := New(Config{})
	var p, q Pair
	p.Bind(tm.Clock())
	q.Bind(tm.Clock())
	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			th := tm.NewThread()
			var scratch Word
			for i := 0; i < perW; {
				x := w<<32 | uint64(i)
				if ok, _ := th.Atomic(PathFast, func(tx *Tx) {
					scratch.Set(tx, uint64(i))
					a, b := p.Get(tx)
					p.Set(tx, a+k, b+1)
					q.Set(tx, x, pairF(x))
				}); ok {
					i++
				}
			}
		}(uint64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < nonTx; i++ {
			q.Set(nil, writers<<32|i, pairF(writers<<32|i))
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(transactional bool) {
			defer readers.Done()
			th := tm.NewThread()
			var last uint64
			for !done.Load() {
				var a, b, x, fx uint64
				if transactional {
					if ok, _ := th.Atomic(PathFast, func(tx *Tx) {
						a, b = p.Get(tx)
						x, fx = q.Get(tx)
					}); !ok {
						continue
					}
				} else {
					a, b = p.Get(nil)
					x, fx = q.Get(nil)
				}
				if a != k*b {
					t.Errorf("torn Pair read (%d,%d), want a == %d*b", a, b, k)
					return
				}
				if (x != 0 || fx != 0) && fx != pairF(x) {
					t.Errorf("torn Pair read (%#x,%#x), want b == f(a) = %#x", x, fx, pairF(x))
					return
				}
				if b < last {
					t.Errorf("Pair count went backwards: %d after %d", b, last)
					return
				}
				last = b
			}
		}(r == 0)
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	const total = writers * perW
	if a, b := p.Get(nil); a != k*total || b != total {
		t.Fatalf("Pair = (%d,%d), want (%d,%d)", a, b, k*total, total)
	}
}

// TestPairRecycle: recycling a pooled cell must not leak its new
// contents to a transaction that may still hold the old node. A reader
// whose snapshot predates the removal (the clock tick between its begin
// and the Recycle) aborts with CauseConflict instead of returning the
// recycled pair — before and after it has read the cell — while a
// transaction that begins afterwards reads it normally.
func TestPairRecycle(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var p Pair
	var removal Word // stands for the commit that unlinked p's node
	p.Bind(tm.Clock())
	removal.Bind(tm.Clock())
	p.Init(1, 2)
	for _, readFirst := range []bool{false, true} {
		var a, b uint64
		ok, ab := th.Atomic(PathFast, func(tx *Tx) {
			if readFirst {
				a, b = p.Get(tx)
			}
			removal.Add(1)
			p.Recycle(7, 8)
			a, b = p.Get(tx)
		})
		if ok || ab.Cause != CauseConflict {
			t.Fatalf("readFirst=%v: stale reader of a recycled Pair: ok=%v %+v, want a conflict abort", readFirst, ok, ab)
		}
		if a == 7 || b == 8 {
			t.Fatalf("readFirst=%v: stale reader returned the recycled pair (%d,%d)", readFirst, a, b)
		}
		if ok, ab := th.Atomic(PathFast, func(tx *Tx) { a, b = p.Get(tx) }); !ok || a != 7 || b != 8 {
			t.Fatalf("fresh reader of a recycled Pair: ok=%v %+v (%d,%d), want (7,8)", ok, ab, a, b)
		}
		p.Recycle(1, 2)
	}
}

// lockWord locks a version word the way a committing transaction does
// and returns the function that releases it unchanged.
func lockWord(t *testing.T, ver *atomic.Uint64) (unlock func()) {
	t.Helper()
	v := ver.Load()
	if v&lockBit != 0 || !ver.CompareAndSwap(v, v|lockBit) {
		t.Fatal("cell already locked")
	}
	return func() { ver.Store(v) }
}

// TestAddWaitIsBounded pins the two edges of the commit-time rule for
// commutative adds: an add entry's wait for a lock holder ends in a
// clean conflict abort when the holder never leaves, and an entry that
// buffers a value does not wait at all. (That add entries do wait is
// TestConcurrentAddsRarelyAbort's.)
func TestAddWaitIsBounded(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var v, w Word

	// Held for good: the bound turns the wait into a conflict abort, and
	// nothing is applied or left locked.
	unlockW := lockWord(t, &w.ver)
	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		v.AddAtCommit(tx, 1)
		w.AddAtCommit(tx, 1)
	})
	if ok || ab.Cause != CauseConflict {
		t.Fatalf("add against a cell locked for good: ok=%v %+v, want a conflict abort", ok, ab)
	}
	if v.ver.Load()&lockBit != 0 {
		t.Fatal("aborted commit left an earlier entry locked")
	}
	unlockW()
	if v.Get(nil) != 0 || w.Get(nil) != 0 {
		t.Fatal("aborted commit applied an add")
	}

	// A buffered value does not wait.
	unlockW = lockWord(t, &w.ver)
	ok, ab = th.Atomic(PathFast, func(tx *Tx) { w.Set(tx, 9) })
	if ok || ab.Cause != CauseConflict {
		t.Fatalf("Set against a locked cell: ok=%v %+v, want a conflict abort", ok, ab)
	}
	unlockW()
}

// TestConcurrentAddsRarelyAbort: two threads whose transactions collide
// on nothing but a commutative add to one hot cell. Without the
// commit-time wait nearly every collision is a conflict abort (about
// one per commit on a 2-CPU host); with it an abort takes a holder that
// is descheduled mid-commit. The threshold is far from both. On a
// single processor there are no collisions to wait out, and the test
// only checks the total.
func TestConcurrentAddsRarelyAbort(t *testing.T) {
	t.Parallel()
	const perG = 100000
	tm := New(Config{})
	var hot Word
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := tm.NewThread()
			var own Word
			<-start
			for i := 0; i < perG; {
				if ok, _ := th.Atomic(PathFast, func(tx *Tx) {
					own.Set(tx, uint64(i))
					hot.AddAtCommit(tx, 3)
				}); ok {
					i++
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := hot.Get(nil); got != 3*2*perG {
		t.Fatalf("hot = %d, want %d", got, 3*2*perG)
	}
	st := tm.Stats()
	commits, conflicts := st.Commits[PathFast], st.Aborts[PathFast][CauseConflict]
	t.Logf("%d commits, %d conflict aborts", commits, conflicts)
	if conflicts > commits/4 {
		t.Fatalf("%d conflict aborts in %d commits that share only a commutative add: add entries do not wait", conflicts, commits)
	}
}

// TestConcurrentAddsExactTotal: N goroutines adding to two Words through
// transactions commit an exact total, and collide on the cells' commit
// locks without a single conflict abort being necessary for correctness
// (aborted attempts are simply retried).
func TestConcurrentAddsExactTotal(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 6
		perG       = 2000
	)
	tm := New(Config{})
	var w, v Word
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tm.NewThread()
			for i := 0; i < perG; {
				if ok, _ := th.Atomic(PathFast, func(tx *Tx) {
					w.AddAtCommit(tx, 1)
					v.AddAtCommit(tx, uint64(g))
				}); ok {
					i++
				}
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * perG
	if got := w.Get(nil); got != total {
		t.Fatalf("Word = %d, want %d", got, total)
	}
	if got := v.Get(nil); got != perG*goroutines*(goroutines-1)/2 {
		t.Fatalf("second Word = %d, want %d", got, perG*goroutines*(goroutines-1)/2)
	}
}

// TestOpposedAddOrdersFinish: two threads add to cells A and B in
// opposite orders, so each commit can hold the lock the other one waits
// for. The wait is bounded, so both must finish — under a watchdog, and
// also on a single processor, where a waiter can only give up (the
// holder cannot run while it polls).
func TestOpposedAddOrdersFinish(t *testing.T) {
	for _, procs := range []int{0, 1} {
		if procs != 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		}
		const perG = 20000
		tm := New(Config{})
		var a, b Word
		finished := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				th := tm.NewThread()
				first, second := &a, &b
				if g == 1 {
					first, second = &b, &a
				}
				for i := 0; i < perG; {
					if ok, _ := th.Atomic(PathFast, func(tx *Tx) {
						first.AddAtCommit(tx, 1)
						second.AddAtCommit(tx, 1)
					}); ok {
						i++
					}
				}
			}(g)
		}
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(60 * time.Second):
			t.Fatalf("GOMAXPROCS=%d: opposed add orders did not finish (commit-lock deadlock?)", runtime.GOMAXPROCS(0))
		}
		for _, w := range []*Word{&a, &b} {
			if got := w.Get(nil); got != 2*perG {
				t.Fatalf("Word = %d, want %d", got, 2*perG)
			}
		}
	}
}
