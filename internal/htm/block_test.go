package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPairNonTxBasics(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	var blk Block
	var p Pair
	if a, b := blk.Get(nil, &p); a != 0 || b != 0 {
		t.Fatalf("zero Pair = (%d,%d)", a, b)
	}
	p.Init(10, 2)
	if a, b := blk.Get(nil, &p); a != 10 || b != 2 {
		t.Fatalf("Pair = (%d,%d) after Init, want (10,2)", a, b)
	}
	before := tm.Clock().Now()
	blk.Set(nil, &p, 16, 2)
	if tm.Clock().Now() == before {
		t.Fatal("Set with a nil tx did not advance the clock")
	}
	if a, b := blk.Get(nil, &p); a != 16 || b != 2 {
		t.Fatalf("Pair = (%d,%d), want (16,2)", a, b)
	}
}

// TestPairMutatorsStampPastSnapshots: a Block's non-transactional
// mutator, Set with a nil tx, stamps the block past every snapshot taken
// before it, so a transaction that read the entry before the mutation
// aborts when it next reads — an unpinned one when extending its
// snapshot finds its first read changed, a pinned one at once — and one
// begun after it reads the new pair. The clock is moved past the block's
// version before each snapshot, so a mutator that stamped the clock's
// value instead would stamp the snapshot itself.
func TestPairMutatorsStampPastSnapshots(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var tick Word
	var blk Block
	var p Pair
	blk.Set(nil, &p, 1, 2)
	for _, pinned := range []bool{false, true} {
		tick.Set(nil, 1) // the clock moves past the block's version
		rv := tm.Clock().Now()
		var a, b uint64
		body := func(tx *Tx) {
			a, b = blk.Get(tx, &p)
			blk.Set(nil, &p, a+10, b+10)
			if ver := blk.ver.Load(); ver>>1 <= rv {
				t.Errorf("stamped version %d, not past the snapshot %d", ver>>1, rv)
			}
			a, b = blk.Get(tx, &p)
		}
		var ok bool
		var ab Abort
		if pinned {
			ok, ab = th.AtomicAt(PathFast, rv, body)
		} else {
			ok, ab = th.Atomic(PathFast, body)
		}
		if ok || ab.Cause != CauseConflict {
			t.Errorf("pinned=%v: reader of the pair before the mutation: ok=%v %+v, want a conflict abort", pinned, ok, ab)
		}
		want, _ := blk.Get(nil, &p)
		if ok, ab := th.Atomic(PathFast, func(tx *Tx) { a, b = blk.Get(tx, &p) }); !ok || a != want || b != want+1 {
			t.Errorf("reader begun after the mutation: ok=%v %+v (%d,%d), want (%d,%d)", ok, ab, a, b, want, want+1)
		}
	}
}

// TestPairOpacity: writers add (+k, +1) to one Pair transactionally,
// reading it and setting the sum, so a == k*b in every committed state
// of it, and set another entry of the same Block to (x, pairF(x)), so
// b == pairF(a) there. Transactional and non-transactional readers must
// see exactly that from one Get — never the two halves of different
// commits — while a third party sets the second entry outside any
// transaction (strong atomicity).
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
	var blk Block
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
					a, b := blk.Get(tx, &p)
					blk.Set(tx, &p, a+k, b+1)
					blk.Set(tx, &q, x, pairF(x))
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
			blk.Set(nil, &q, writers<<32|i, pairF(writers<<32|i))
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
						a, b = blk.Get(tx, &p)
						x, fx = blk.Get(tx, &q)
					}); !ok {
						continue
					}
				} else {
					a, b = blk.Get(nil, &p)
					x, fx = blk.Get(nil, &q)
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
	if a, b := blk.Get(nil, &p); a != k*total || b != total {
		t.Fatalf("Pair = (%d,%d), want (%d,%d)", a, b, k*total, total)
	}
}

// leafBlock is a Block over 17 entries, an (a,b)-tree leaf's order word
// and slots.
type leafBlock struct {
	blk Block
	e   [17]Pair
}

// TestBlockCommitLocksOnce: entries of one block written by one
// transaction are one write-set entry each, but the commit locks and
// stamps the block's version word once — for its first entry — and every
// value lands. Two entries and all 17 of a leaf-sized block are tried.
func TestBlockCommitLocksOnce(t *testing.T) {
	t.Parallel()
	th := New(Config{}).NewThread()
	for _, n := range []int{2, 17} {
		var l leafBlock
		before := l.blk.ver.Load()
		ok, ab := th.Atomic(PathFast, func(tx *Tx) {
			for i := range n {
				l.blk.Set(tx, &l.e[i], uint64(i), uint64(n))
			}
			if len(tx.writes) != n {
				t.Errorf("%d entries: write set holds %d", n, len(tx.writes))
			}
		})
		if !ok {
			t.Fatalf("%d entries of one block: the commit aborted %+v", n, ab)
		}
		locks := 0
		for _, w := range th.tx.writes {
			if w.locks {
				locks++
			}
		}
		if locks != 1 || !th.tx.writes[0].locks {
			t.Errorf("%d entries of one block: %d entries took the lock, want 1, the first", n, locks)
		}
		if v := l.blk.ver.Load(); v&lockBit != 0 || v <= before {
			t.Errorf("%d entries: version word %#x after the commit, want unlocked and past %#x", n, v, before)
		}
		for i := range n {
			if a, b := l.blk.Get(nil, &l.e[i]); a != uint64(i) || b != uint64(n) {
				t.Errorf("%d entries: entry %d holds (%d,%d), want (%d,%d)", n, i, a, b, i, n)
			}
		}
	}
}

// TestBlockReadsBackByEntry: a transaction that wrote entry i of a block
// reads entry j from memory and entry i back from its write set — a
// buffered write belongs to its entry, not to the version word they
// share — and commits, its read of j validated against its own lock.
func TestBlockReadsBackByEntry(t *testing.T) {
	t.Parallel()
	th := New(Config{}).NewThread()
	var l leafBlock
	l.blk.Set(nil, &l.e[3], 30, 31)
	l.blk.Set(nil, &l.e[5], 50, 51)
	var j, i [2]uint64
	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		l.blk.Set(tx, &l.e[5], 55, 56)
		j[0], j[1] = l.blk.Get(tx, &l.e[3])
		i[0], i[1] = l.blk.Get(tx, &l.e[5])
	})
	if !ok {
		t.Fatalf("the transaction aborted: %+v", ab)
	}
	if j != [2]uint64{30, 31} {
		t.Errorf("unwritten entry read (%d,%d) in the transaction, want (30,31) from memory", j[0], j[1])
	}
	if i != [2]uint64{55, 56} {
		t.Errorf("written entry read (%d,%d) in the transaction, want its buffered (55,56)", i[0], i[1])
	}
	if a, b := l.blk.Get(nil, &l.e[5]); a != 55 || b != 56 {
		t.Errorf("written entry holds (%d,%d) after the commit, want (55,56)", a, b)
	}
	if a, b := l.blk.Get(nil, &l.e[3]); a != 30 || b != 31 {
		t.Errorf("unwritten entry holds (%d,%d) after the commit, want (30,31)", a, b)
	}
}

// TestBlockOverwriteConflictsWithSiblingReader pins the conflict rule a
// shared version word brings: a transaction that read entry j aborts
// with CauseConflict once another commits an overwrite of entry i alone
// — whether it reads again (its snapshot extension finds j's read
// changed) or commits a write of its own (validation does) — as a
// hardware transaction that read a line aborts when another writes any
// word of it.
func TestBlockOverwriteConflictsWithSiblingReader(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	reader, writer := tm.NewThread(), tm.NewThread()
	var l leafBlock
	var other Word
	for _, then := range []struct {
		name string
		do   func(tx *Tx)
	}{
		{"reads again", func(tx *Tx) { l.blk.Get(tx, &l.e[1]) }},
		{"commits a write", func(tx *Tx) { other.Set(tx, 1) }},
	} {
		ok, ab := reader.Atomic(PathFast, func(tx *Tx) {
			l.blk.Get(tx, &l.e[1])
			if ok, ab := writer.Atomic(PathFast, func(tx *Tx) { l.blk.Set(tx, &l.e[0], 7, 7) }); !ok {
				t.Fatalf("the overwrite aborted: %+v", ab)
			}
			then.do(tx)
		})
		if ok || ab.Cause != CauseConflict {
			t.Errorf("reader of a sibling entry that %s after an overwrite: ok=%v %+v, want a conflict abort", then.name, ok, ab)
		}
	}
}

// TestBlockCommitIsWhole: writers commit (v, ^v) to two entries of one
// block with v rising, while non-transactional readers read the first
// entry and then the second. A commit stores every value before it
// stamps the version word, so a reader that saw v in the first entry
// sees v or later in the second; a commit that unlocked the block with
// only the first written would show it an older one. Run it under
// -race -count=10.
func TestBlockCommitIsWhole(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	var l leafBlock
	l.e[0].Init(0, ^uint64(0))
	l.e[1].Init(0, ^uint64(0))
	const perW = 3000
	var next, seen atomic.Uint64
	var started, writers, readers sync.WaitGroup
	var done atomic.Bool
	for range 2 {
		readers.Add(1)
		started.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; !done.Load(); i++ {
				a0, b0 := l.blk.Get(nil, &l.e[0])
				a1, b1 := l.blk.Get(nil, &l.e[1])
				if i == 0 {
					started.Done()
				}
				if b0 != ^a0 || b1 != ^a1 {
					t.Errorf("torn entry: (%d,%#x), (%d,%#x)", a0, b0, a1, b1)
					return
				}
				if a1 < a0 {
					t.Errorf("read %d in the first entry, then %d in the second: half of a commit", a0, a1)
					return
				}
				if a0 > 0 {
					seen.Add(1)
				}
				runtime.Gosched()
			}
		}()
	}
	started.Wait() // the readers run beside the writers, not after them
	for range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			th := tm.NewThread()
			// Write until the readers have met commits, not for a fixed
			// count a fast machine finishes before they run.
			for i := 0; i < perW || seen.Load() < perW && i < 100*perW; i++ {
				v := next.Add(1)
				for {
					if ok, _ := th.Atomic(PathFast, func(tx *Tx) {
						if a, _ := l.blk.Get(tx, &l.e[0]); a > v {
							return // a later writer got there first
						}
						l.blk.Set(tx, &l.e[0], v, ^v)
						l.blk.Set(tx, &l.e[1], v, ^v)
					}); ok {
						break
					}
				}
			}
		}()
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if seen.Load() < perW {
		t.Fatalf("readers met a commit %d times, want %d: the test exercised too little", seen.Load(), perW)
	}
}
