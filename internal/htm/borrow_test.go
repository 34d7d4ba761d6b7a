package htm

import (
	"sync"
	"testing"
)

// The long-log tests change and read the process-wide free list
// (longLogs), so none of them runs in parallel: Go starts the package's
// parallel tests only once its sequential ones are done.

// freeLogs returns the free list's length.
func freeLogs() int {
	longLogs.mu.Lock()
	defer longLogs.mu.Unlock()
	return len(longLogs.free)
}

// checkOwnLog fails t unless th is back on its own read log, no larger
// than ownReads, and the borrowed log l (its full capacity) holds no
// cell.
func checkOwnLog(t *testing.T, th *Thread, l []readEntry) {
	t.Helper()
	tx := &th.tx
	if tx.own != nil || cap(tx.reads) > ownReads {
		t.Errorf("thread left on a log of cap %d (own log set aside: %v), want its own log of at most %d", cap(tx.reads), tx.own != nil, ownReads)
	}
	if cap(l) <= ownReads {
		t.Fatalf("the attempt's log has cap %d: it never borrowed", cap(l))
	}
	for i, e := range l[:cap(l)] {
		if e.ver != nil {
			t.Fatalf("gave back a log holding a cell at entry %d of %d", i, cap(l))
		}
	}
}

// TestBorrowedLogGoesBackOnEveryEnd: an attempt that reads past the
// thread's own log borrows a long one, and however the attempt ends —
// commit, a capacity abort at exactly ReadCapacity, a conflict, an
// explicit abort, a foreign panic — the thread is left on its own log
// and the borrowed one goes back to the free list with every entry
// zeroed, so it keeps no cell alive.
func TestBorrowedLogGoesBackOnEveryEnd(t *testing.T) {
	const readCap = 3 * ownReads
	cells := make([]Word, readCap+1)
	readAll := func(tx *Tx, n int) {
		for i := range cells[:n] {
			cells[i].Get(tx)
		}
	}
	for _, c := range []struct {
		name      string
		body      func(tx *Tx, l *[]readEntry)
		wantCause AbortCause
	}{
		{"commit", func(tx *Tx, l *[]readEntry) {
			readAll(tx, 2*ownReads)
			*l = tx.reads
		}, CauseNone},
		{"capacity", func(tx *Tx, l *[]readEntry) {
			readAll(tx, readCap)
			*l = tx.reads
			cells[readCap].Get(tx)
		}, CauseCapacity},
		{"conflict", func(tx *Tx, l *[]readEntry) {
			readAll(tx, 2*ownReads)
			*l = tx.reads
			cells[0].Set(nil, 1)
			cells[0].Get(tx)
		}, CauseConflict},
		{"explicit", func(tx *Tx, l *[]readEntry) {
			readAll(tx, 2*ownReads)
			*l = tx.reads
			tx.Abort(3)
		}, CauseExplicit},
		{"panic", func(tx *Tx, l *[]readEntry) {
			readAll(tx, 2*ownReads)
			*l = tx.reads
			panic("boom")
		}, CauseNone},
	} {
		t.Run(c.name, func(t *testing.T) {
			th := New(Config{ReadCapacity: readCap}).NewThread()
			var l []readEntry
			var ok bool
			var ab Abort
			func() {
				defer func() {
					if r := recover(); r != nil && c.name != "panic" {
						panic(r)
					}
				}()
				ok, ab = th.Atomic(PathFast, func(tx *Tx) { c.body(tx, &l) })
			}()
			if c.name != "panic" && (ok != (c.wantCause == CauseNone) || ab.Cause != c.wantCause) {
				t.Fatalf("attempt ended ok=%v %+v, want cause %v", ok, ab, c.wantCause)
			}
			checkOwnLog(t, th, l)
			if c.name == "panic" {
				for i, e := range th.tx.reads[:cap(th.tx.reads)] {
					if e.ver != nil {
						t.Fatalf("own log kept a cell at entry %d after a foreign panic", i)
					}
				}
			}
		})
	}
}

// TestBorrowedLogValidatesEarlierReads: the reads logged in the thread's
// own log before the switch to a borrowed one are still the read set. A
// change to one of them aborts a later read past the snapshot (extend
// re-checks it) and a commit (validation re-checks it), both with
// CauseConflict.
func TestBorrowedLogValidatesEarlierReads(t *testing.T) {
	cells := make([]Word, 2*ownReads)
	var late, out Word
	for _, c := range []struct {
		name string
		end  func(tx *Tx)
	}{
		{"extend", func(tx *Tx) {
			late.Set(nil, 1) // stamped past the snapshot, unread so far
			late.Get(tx)
		}},
		{"commit", func(tx *Tx) { out.Set(tx, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			th := New(Config{}).NewThread()
			ok, ab := th.Atomic(PathFast, func(tx *Tx) {
				for i := range cells {
					cells[i].Get(tx)
				}
				if tx.own == nil {
					t.Fatalf("%d reads did not borrow a log", len(cells))
				}
				cells[0].Set(nil, 7) // logged before the switch
				c.end(tx)
			})
			if ok || ab.Cause != CauseConflict {
				t.Fatalf("attempt ended ok=%v %+v, want a conflict abort", ok, ab)
			}
			if got := th.Stats().Extensions[PathFast]; got != 0 {
				t.Fatalf("%d extensions past a changed read, want 0", got)
			}
		})
	}
}

// TestBorrowedLogListHoldsOneLog: eight threads on eight TMs — one
// goroutine's shard handles — each run one long transaction in turn.
// They share one long log: afterwards the free list holds one, and
// another round allocates nothing.
func TestBorrowedLogListHoldsOneLog(t *testing.T) {
	longLogs.mu.Lock()
	longLogs.free = nil
	longLogs.mu.Unlock()
	cells := make([]Word, 8*ownReads)
	body := func(tx *Tx) {
		for i := range cells {
			cells[i].Get(tx)
		}
	}
	var ths [8]*Thread
	for i := range ths {
		ths[i] = New(Config{}).NewThread()
	}
	round := func() {
		for _, th := range ths {
			if ok, ab := th.Atomic(PathFast, body); !ok {
				t.Fatalf("long read aborted: %+v", ab)
			}
		}
	}
	round()
	if n := freeLogs(); n != 1 {
		t.Fatalf("free list holds %d logs after a round, want 1", n)
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("a round of long transactions allocated %.1f times, want 0", avg)
	}
	for i, th := range ths {
		if c := cap(th.tx.reads); c > ownReads {
			t.Errorf("thread %d keeps a read log of cap %d, want at most %d", i, c, ownReads)
		}
	}
}

// TestBorrowedLogConcurrentBorrowers: readers on their own threads run
// long transactions at once, each borrowing from the one free list,
// while a writer moves value between the cells they read. Every
// committed read sees the total the writer preserves, and afterwards the
// list holds no more logs than there were readers. Run it under -race.
func TestBorrowedLogConcurrentBorrowers(t *testing.T) {
	const readers, rounds, total = 4, 200, 1000
	cells := make([]Word, 4*ownReads)
	cells[0].Set(nil, total)
	tm := New(Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := tm.NewThread()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			from, to := &cells[i%len(cells)], &cells[(i*7+1)%len(cells)]
			th.Atomic(PathFast, func(tx *Tx) {
				if v := from.Get(tx); v > 0 && from != to {
					from.Set(tx, v-1)
					to.Set(tx, to.Get(tx)+1)
				}
			})
		}
	}()
	var rwg sync.WaitGroup
	for range readers {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			th := tm.NewThread()
			for range rounds {
				var sum uint64
				if ok, _ := th.Atomic(PathFast, func(tx *Tx) {
					sum = 0
					for i := range cells {
						sum += cells[i].Get(tx)
					}
				}); ok && sum != total {
					t.Errorf("a committed long read summed %d, want %d", sum, total)
					return
				}
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wg.Wait()
	if n := freeLogs(); n > readers {
		t.Fatalf("free list holds %d logs after %d concurrent borrowers", n, readers)
	}
}
