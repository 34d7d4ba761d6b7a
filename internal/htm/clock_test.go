package htm

import (
	"sync"
	"testing"
)

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
	commit := func(tx *Tx) { p.Set(tx, 1, 1); w.Set(tx, 1) }
	last := [2]uint64{}
	for i, write := range []func(){
		func() { th.Atomic(PathFast, commit) },
		func() { th.Atomic(PathFast, commit) },
		func() { p.Store(2, 2); w.Set(nil, 2) },
		func() { th.Atomic(PathFast, commit) },
		func() { w.CAS(nil, 1, 4); w.Add(1); p.Store(4, 4) },
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

// TestAcquireNonTxBackoffCorrectness hammers one cell from many
// goroutines through the backoff-based lock acquisition; no increment
// may be lost and the lock bit must always be released.
func TestAcquireNonTxBackoffCorrectness(t *testing.T) {
	t.Parallel()
	var w Word
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
