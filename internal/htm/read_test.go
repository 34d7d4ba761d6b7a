package htm

import (
	"sync/atomic"
	"testing"
	"time"

	"htmtree/internal/fault"
)

// readCell is one cell of any kind, seen as one number: the operations
// the read-path table needs.
type readCell struct {
	ver *atomic.Uint64
	get func(tx *Tx) uint64
	// set buffers a write in tx, or stores at once with a nil tx.
	set func(tx *Tx, v uint64)
}

// readCellKinds builds a fresh cell of each kind: a Word, a Pair holding (v, ^v), and a Ref to a node holding v.
var readCellKinds = []struct {
	name string
	new  func() readCell
}{
	{"Word", func() readCell {
		w := new(Word)
		return readCell{&w.ver, w.Get, w.Set}
	}},
	{"Pair", func() readCell {
		p := new(Pair)
		p.Init(0, ^uint64(0))
		get := func(tx *Tx) uint64 {
			a, b := p.Get(tx)
			if b != ^a {
				panic("torn pair")
			}
			return a
		}
		set := func(tx *Tx, v uint64) {
			if tx == nil {
				p.Store(v, ^v)
				return
			}
			p.Set(tx, v, ^v)
		}
		return readCell{&p.ver, get, set}
	}},
	{"Ref", func() readCell {
		r := new(Ref[uint64])
		r.Init(new(uint64))
		set := func(tx *Tx, v uint64) { r.Set(tx, &v) }
		return readCell{&r.ver, func(tx *Tx) uint64 { return *r.Get(tx) }, set}
	}},
}

// warmReads is how many reads warmRead logs: enough to give the read
// log room, so that a row's read is declined by the row's condition and
// not by an empty log.
const warmReads = 5

// warmRead commits one transaction that reads c warmReads times.
func warmRead(t *testing.T, th *Thread, c readCell) {
	t.Helper()
	if ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		for range warmReads {
			c.get(tx)
		}
	}); !ok {
		t.Fatalf("warm-up aborted: %+v", ab)
	}
}

// TestReadFastPathDeclines: every transactional read that is not the
// common one — a locked cell, a stamp past the snapshot, a cell in the
// write set, an armed attempt, a read at ReadCapacity — is declined by
// Tx.fastRead and decided by the Get's slow half as it always was; a
// nil-tx read of a locked cell waits for the unlock; and the common
// read takes the fast path, growing the read set by one and extending
// nothing. Each row runs on a Word, a Pair and a Ref, after a warm-up
// that gives the read log room.
func TestReadFastPathDeclines(t *testing.T) {
	t.Parallel()
	declines := func(t *testing.T, tx *Tx, c readCell) {
		t.Helper()
		if tx.fastRead(c.ver.Load()) {
			t.Error("fastRead admits the read")
		}
	}
	exts := func(th *Thread) uint64 { return th.Stats().Extensions[PathFast] }
	for _, row := range []struct {
		name string
		cfg  func() Config // nil for the defaults
		run  func(t *testing.T, tm *TM, th *Thread, c readCell)
	}{
		{"locked cell spins, then aborts naming it", nil, func(t *testing.T, tm *TM, th *Thread, c readCell) {
			Pin() // the snapshot is past the cell's version: only the lock declines
			unlock := lockWord(t, c.ver)
			ok, ab := th.Atomic(PathFast, func(tx *Tx) {
				declines(t, tx, c)
				c.get(tx)
				t.Error("a read of a locked cell returned")
			})
			unlock()
			if ok || ab.Cause != CauseConflict || ab.held != c.ver {
				t.Errorf("ok=%v %+v, want a conflict abort holding the cell", ok, ab)
			}
		}},
		{"stamp past the snapshot extends", nil, func(t *testing.T, tm *TM, th *Thread, c readCell) {
			before := exts(th)
			var got uint64
			ok, ab := th.Atomic(PathFast, func(tx *Tx) {
				c.set(nil, 5)
				declines(t, tx, c)
				got = c.get(tx)
			})
			if !ok || got != 5 || exts(th) != before+1 {
				t.Errorf("ok=%v %+v read %d, %d extensions; want a commit reading 5 through 1 extension", ok, ab, got, exts(th)-before)
			}
		}},
		{"stamp past a pinned snapshot aborts", nil, func(t *testing.T, tm *TM, th *Thread, c readCell) {
			before := exts(th)
			ok, ab := th.AtomicAt(PathFast, Pin(), func(tx *Tx) {
				c.set(nil, 6)
				declines(t, tx, c)
				c.get(tx)
				t.Error("a pinned read past its snapshot returned")
			})
			if ok || ab.Cause != CauseConflict || exts(th) != before {
				t.Errorf("ok=%v %+v, %d extensions; want a conflict abort and none", ok, ab, exts(th)-before)
			}
		}},
		{"buffered write is read back", nil, func(t *testing.T, tm *TM, th *Thread, c readCell) {
			var got uint64
			ok, ab := th.Atomic(PathFast, func(tx *Tx) {
				c.set(tx, 7)
				declines(t, tx, c)
				got = c.get(tx)
			})
			if !ok || got != 7 || c.get(nil) != 7 {
				t.Errorf("ok=%v %+v read %d in the attempt, %d after; want 7 and 7", ok, ab, got, c.get(nil))
			}
		}},
		{"armed attempt consults the plan on every read",
			// The warm-up's reads are encounters 1..warmReads; the rule
			// fires at the third read of the next attempt.
			func() Config {
				return Config{Faults: fault.New(1, fault.Rule{Point: fault.PointTxAccess, Every: 1, After: warmReads + 2})}
			},
			func(t *testing.T, tm *TM, th *Thread, c readCell) {
				n := 0
				ok, ab := th.Atomic(PathFast, func(tx *Tx) {
					for {
						declines(t, tx, c)
						c.get(tx)
						n++
					}
				})
				plan := tm.cfg.Faults
				if ok || ab.Cause != CauseSpurious || n != 2 ||
					plan.Hits(fault.PointTxAccess) != warmReads+3 || plan.Fires(fault.PointTxAccess) != 1 {
					t.Errorf("ok=%v %+v after %d reads, %d encounters, %d fires; want a spurious abort at read 3, encounter %d, the one fire",
						ok, ab, n, plan.Hits(fault.PointTxAccess), plan.Fires(fault.PointTxAccess), warmReads+3)
				}
			}},
		{"read at ReadCapacity aborts",
			// warmReads appends grow the log to capacity 8, past the
			// read set's: only the read set's capacity declines.
			func() Config { return Config{ReadCapacity: warmReads} },
			func(t *testing.T, tm *TM, th *Thread, c readCell) {
				n := 0
				ok, ab := th.Atomic(PathFast, func(tx *Tx) {
					for {
						if n == warmReads {
							declines(t, tx, c)
						}
						c.get(tx)
						n++
					}
				})
				if ok || ab.Cause != CauseCapacity || n != warmReads {
					t.Errorf("ok=%v %+v after %d reads; want a capacity abort after %d", ok, ab, n, warmReads)
				}
			}},
		{"nil-tx read of a locked cell waits for the unlock", nil, func(t *testing.T, tm *TM, th *Thread, c readCell) {
			c.set(nil, 3)
			unlock := lockWord(t, c.ver)
			var released atomic.Bool
			done := make(chan bool)
			go func() {
				got := c.get(nil)
				done <- released.Load() && got == 3
			}()
			select {
			case <-done:
				t.Fatal("the read returned while the cell was locked")
			case <-time.After(20 * time.Millisecond):
			}
			released.Store(true)
			unlock()
			if !<-done {
				t.Error("the read returned before the unlock, or a value other than 3")
			}
		}},
		{"common read takes the fast path", nil, func(t *testing.T, tm *TM, th *Thread, c readCell) {
			before := exts(th)
			ok, ab := th.Atomic(PathFast, func(tx *Tx) {
				c.get(tx)
				n, v := len(tx.reads), c.ver.Load()
				if !tx.fastRead(v) {
					t.Error("fastRead declines the read")
				}
				c.get(tx)
				if len(tx.reads) != n+1 || tx.reads[n] != (readEntry{c.ver, v}) {
					t.Errorf("read set %d entries, last %+v; want %d, the cell at %d", len(tx.reads), tx.reads[len(tx.reads)-1], n+1, v)
				}
			})
			if !ok || exts(th) != before {
				t.Errorf("ok=%v %+v, %d extensions; want a commit and none", ok, ab, exts(th)-before)
			}
		}},
	} {
		for _, kind := range readCellKinds {
			t.Run(kind.name+"/"+row.name, func(t *testing.T) {
				var cfg Config
				if row.cfg != nil {
					cfg = row.cfg()
				}
				tm := New(cfg)
				th := tm.NewThread()
				c := kind.new()
				warmRead(t, th, c)
				row.run(t, tm, th, c)
			})
		}
	}
}
