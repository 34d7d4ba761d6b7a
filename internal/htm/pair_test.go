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
	before := tm.Clock().Now()
	p.Store(tm.Clock(), 16, 2)
	if tm.Clock().Now() == before {
		t.Fatal("Store did not advance the clock")
	}
	if a, b := p.Get(nil); a != 16 || b != 2 {
		t.Fatalf("Pair = (%d,%d), want (16,2)", a, b)
	}
}

// TestPairMutatorsStampPastSnapshots: a Pair's non-transactional
// mutator, Store, stamps the cell past every snapshot taken on the clock
// it is passed, so a transaction that read the cell before the mutation
// aborts when it next reads — an unpinned one when extending its
// snapshot finds its first read changed, a pinned one at once — and one
// begun after it reads the new pair. The clock is moved past the cell's
// version before each snapshot, so a mutator that stamped the clock's
// value instead would stamp the snapshot itself. A second TM's clock is
// left alone: the clock is the Pair's domain only through the argument.
func TestPairMutatorsStampPastSnapshots(t *testing.T) {
	t.Parallel()
	tm, foreign := New(Config{}), New(Config{})
	th := tm.NewThread()
	c := tm.Clock()
	var tick Word
	tick.Bind(c)
	for _, m := range []struct {
		name  string
		write func(p *Pair, a, b uint64)
	}{
		{"Store", func(p *Pair, a, b uint64) { p.Store(c, a, b) }},
	} {
		var p Pair
		p.Store(c, 1, 2)
		foreignClock := foreign.Clock().Now()
		for _, pinned := range []bool{false, true} {
			tick.Set(nil, 1) // the clock moves past the pair's version
			rv := tm.Clock().Now()
			var a, b uint64
			body := func(tx *Tx) {
				a, b = p.Get(tx)
				m.write(&p, a+10, b+10)
				if ver := p.ver.Load(); ver>>1 <= rv {
					t.Errorf("%s: stamped version %d, not past the snapshot %d", m.name, ver>>1, rv)
				}
				a, b = p.Get(tx)
			}
			var ok bool
			var ab Abort
			if pinned {
				ok, ab = th.AtomicAt(PathFast, rv, body)
			} else {
				ok, ab = th.Atomic(PathFast, body)
			}
			if ok || ab.Cause != CauseConflict {
				t.Errorf("%s, pinned=%v: reader of the pair before the mutation: ok=%v %+v, want a conflict abort", m.name, pinned, ok, ab)
			}
			want, _ := p.Get(nil)
			if ok, ab := th.Atomic(PathFast, func(tx *Tx) { a, b = p.Get(tx) }); !ok || a != want || b != want+1 {
				t.Errorf("%s: reader begun after the mutation: ok=%v %+v (%d,%d), want (%d,%d)", m.name, ok, ab, a, b, want, want+1)
			}
		}
		if got := foreign.Clock().Now(); got != foreignClock {
			t.Errorf("%s on one TM's clock moved another's: %d -> %d", m.name, foreignClock, got)
		}
	}
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
			q.Store(tm.Clock(), writers<<32|i, pairF(writers<<32|i))
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
