package htm

import (
	"sync"
	"testing"
)

// TestPerTMClockIndependence is the acceptance check for the per-TM
// version clock: commits write no clock at all — they stamp their
// writes one past their own TM's — and what does move a clock, a
// non-transactional mutation of a bound cell or a pin, moves only its
// own TM's.
func TestPerTMClockIndependence(t *testing.T) {
	t.Parallel()
	tm1, tm2 := New(Config{}), New(Config{})
	th1, th2 := tm1.NewThread(), tm2.NewThread()
	var x1, x2 Word
	clocks := func(when string, want1, want2 uint64) {
		t.Helper()
		if got1, got2 := tm1.ClockValue(), tm2.ClockValue(); got1 != want1 || got2 != want2 {
			t.Fatalf("%s: clocks = (%d, %d), want (%d, %d)", when, got1, got2, want1, want2)
		}
	}

	const commits = 100
	for i := 0; i < commits; i++ {
		if ok, ab := th1.Atomic(PathFast, func(tx *Tx) { x1.Set(tx, uint64(i)) }); !ok {
			t.Fatalf("tm1 commit %d failed: %+v", i, ab)
		}
	}
	clocks("after tm1 commits", 0, 0)
	if ok, _ := th2.Atomic(PathFast, func(tx *Tx) { x2.Set(tx, 1) }); !ok {
		t.Fatal("tm2 commit failed")
	}
	clocks("after a tm2 commit", 0, 0)

	// Non-transactional mutations and pins advance exactly their own
	// TM's clock.
	var w1, w2 Word
	w1.Bind(tm1.Clock())
	w2.Bind(tm2.Clock())
	w1.Set(nil, 7)
	clocks("after a tm1-bound Set", 1, 0)
	w2.Add(1)
	clocks("after a tm2-bound Add", 1, 1)
	if got := tm2.Clock().Pin(); got != 2 {
		t.Fatalf("tm2 pin = %d, want 2", got)
	}
	clocks("after a tm2 pin", 1, 2)
}

// TestStampsOnlyGrow: every write moves its cell's version word forward,
// even when the clock has not moved since the cell's last write — a
// commit stamps one past the clock, so two of them would otherwise
// stamp the same version, and a reader comparing the version word before
// and after loading a Pair's two words would take the halves of
// different writes for one.
func TestStampsOnlyGrow(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var p Pair
	var w Word
	c := tm.Clock()
	w.Bind(c)
	commit := func(tx *Tx) { p.Set(tx, 1, 1); w.Set(tx, 1) }
	last := [2]uint64{}
	for i, write := range []func(){
		func() { th.Atomic(PathFast, commit) },
		func() { th.Atomic(PathFast, commit) },
		func() { p.Store(c, 2, 2); w.Set(nil, 2) },
		func() { th.Atomic(PathFast, commit) },
		func() { w.CAS(nil, 1, 4); w.Add(1); p.Store(c, 4, 4) },
		func() { th.Atomic(PathFast, commit) },
	} {
		write()
		for j, ver := range []uint64{p.ver.Load(), w.ver.Load()} {
			if ver&lockBit != 0 || ver <= last[j] {
				t.Fatalf("write %d left cell %d at version word %#x after %#x", i, j, ver, last[j])
			}
			last[j] = ver
		}
	}
}

// TestUnboundNonTxMutationPanics: a cell that was never bound to a TM
// clock must fail loudly on its first non-transactional mutation, not
// corrupt version ordering silently.
func TestUnboundNonTxMutationPanics(t *testing.T) {
	t.Parallel()
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on unbound cell did not panic", name)
			}
		}()
		fn()
	}
	check("Word.Set", func() { new(Word).Set(nil, 1) })
	check("Word.CAS", func() { new(Word).CAS(nil, 0, 1) })
	check("Word.Add", func() { new(Word).Add(1) })
	x := 1
	check("Ref.Set", func() { new(Ref[int]).Set(nil, &x) })
	check("Ref.CAS", func() { new(Ref[int]).CAS(nil, nil, &x) })
}

// TestAcquireNonTxBackoffCorrectness hammers one cell from many
// goroutines through the backoff-based lock acquisition; no increment
// may be lost and the lock bit must always be released.
func TestAcquireNonTxBackoffCorrectness(t *testing.T) {
	t.Parallel()
	var w Word
	w.Bind(NewClock())
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := w.Get(nil); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if w.ver.Load()&lockBit != 0 {
		t.Fatal("version word left locked")
	}
}
