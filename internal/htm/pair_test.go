package htm

import (
	"sync"
	"sync/atomic"
	"testing"
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
