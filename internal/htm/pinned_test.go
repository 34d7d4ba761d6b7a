package htm

import (
	"sync"
	"testing"
)

// TestPinnedReadsTheSnapshot: an attempt begun with AtomicAt at a value
// rv the clock held earlier sees every cell as it was when the clock
// read rv — the old value of a cell not written since — and aborts with
// CauseConflict on a cell written later, by a transaction or outside
// one. It never returns the later value.
func TestPinnedReadsTheSnapshot(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th, writer := tm.NewThread(), tm.NewThread()
	var still, txWritten, plainWritten Word
	var blk Block
	var pair Pair
	for _, c := range []*Word{&still, &txWritten, &plainWritten} {
		c.Set(nil, 1)
	}
	blk.Set(nil, &pair, 1, 1)

	rv := tm.Clock().Now()
	if ok, _ := writer.Atomic(PathFast, func(tx *Tx) { txWritten.Set(tx, 2) }); !ok {
		t.Fatal("writer aborted")
	}
	plainWritten.Set(nil, 2)
	blk.Set(nil, &pair, 2, 2)

	ok, _ := th.AtomicAt(PathFast, rv, func(tx *Tx) {
		if got := still.Get(tx); got != 1 {
			t.Errorf("unwritten cell reads %d at the snapshot, want 1", got)
		}
	})
	if !ok {
		t.Fatal("a pinned read of cells unwritten since the snapshot aborted")
	}
	for name, read := range map[string]func(tx *Tx) uint64{
		"transactional write": txWritten.Get,
		"plain write":         plainWritten.Get,
		"pair write":          func(tx *Tx) uint64 { a, _ := blk.Get(tx, &pair); return a },
	} {
		ok, ab := th.AtomicAt(PathFast, rv, func(tx *Tx) {
			_ = still.Get(tx)
			t.Errorf("%s: pinned reader got %d from a cell written after its snapshot", name, read(tx))
		})
		if ok || ab.Cause != CauseConflict {
			t.Errorf("%s: ok=%v abort=%+v, want a conflict abort", name, ok, ab)
		}
	}
	st := th.Stats()
	if st.Commits[PathFast] != 1 || st.Aborts[PathFast][CauseConflict] != 3 {
		t.Errorf("pinned attempts are not in the thread's statistics: %+v", st)
	}
	// A snapshot taken now sees the new values.
	if ok, _ := th.AtomicAt(PathFast, tm.Clock().Now(), func(tx *Tx) {
		if a, b := txWritten.Get(tx), plainWritten.Get(tx); a != 2 || b != 2 {
			t.Errorf("fresh pinned reader got %d, %d, want 2, 2", a, b)
		}
	}); !ok {
		t.Fatal("fresh pinned reader aborted")
	}
}

// TestPinnedSnapshotAheadOfClockPanics: AtomicAt with a value the clock
// has not reached is a caller bug. The clock is shared with every other
// test of the package, so this one does not run in parallel with them:
// one of them could move the clock past the value first.
func TestPinnedSnapshotAheadOfClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a snapshot ahead of the clock did not panic")
		}
	}()
	tm := New(Config{})
	tm.NewThread().AtomicAt(PathFast, tm.Clock().Now()+1, func(*Tx) {})
}

// TestPinnedCutAcrossTwoTMs is the cross-shard protocol in miniature:
// two TMs, a writer that increments a counter in the first and then the
// same counter in the second, and a reader that takes one snapshot
// (Pin) and reads each counter in its own transaction pinned at it, one
// per TM. Whatever it commits must be a state the pair passed through:
// second ≤ first ≤ second + 1.
func TestPinnedCutAcrossTwoTMs(t *testing.T) {
	t.Parallel()
	tms := [2]*TM{New(Config{}), New(Config{})}
	var ctr [2]Word
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ths := [2]*Thread{tms[0].NewThread(), tms[1].NewThread()}
		for n := uint64(1); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range ths {
				for {
					if ok, _ := ths[i].Atomic(PathFast, func(tx *Tx) { ctr[i].Set(tx, n) }); ok {
						break
					}
				}
			}
		}
	}()
	ths := [2]*Thread{tms[0].NewThread(), tms[1].NewThread()}
	cuts := 0
	for try := 0; try < 200000 && cuts < 2000; try++ {
		rv := Pin()
		var got [2]uint64
		ok0, _ := ths[0].AtomicAt(PathFast, rv, func(tx *Tx) { got[0] = ctr[0].Get(tx) })
		ok1, _ := ths[1].AtomicAt(PathFast, rv, func(tx *Tx) { got[1] = ctr[1].Get(tx) })
		if !ok0 || !ok1 {
			continue
		}
		cuts++
		if got[1] > got[0] || got[0] > got[1]+1 {
			t.Fatalf("pinned cut (%d, %d) is no state the counters passed through", got[0], got[1])
		}
	}
	close(stop)
	wg.Wait()
	if cuts == 0 {
		t.Fatal("no pinned cut ever committed")
	}
}
