package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotExtension pins down what an attempt does when it reads a
// cell stamped past its snapshot, and how far that moves the clock. An
// attempt whose reads so far are unchanged extends: the clock is raised
// to the stamp, the snapshot moves there, and the attempt reads the new
// value and commits. One whose read set changed, or is locked by a
// commit in flight, aborts with CauseConflict. A pinned attempt never
// extends: it raises the clock to the stamp all the same, so a fresh pin
// covers the cell, and aborts. The clock is shared with every other
// test of the package, so each row reads how far it moved, and the test
// does not run in parallel with the others.
func TestSnapshotExtension(t *testing.T) {
	type env struct {
		tm     *TM
		writer *Thread
		a, b   Word
		unlock func() // releases a, when a row locks it
	}
	// commitB stamps b one past the clock, leaving the clock alone.
	commitB := func(t *testing.T, e *env, v uint64) {
		if ok, _ := e.writer.Atomic(PathFast, func(tx *Tx) { e.b.Set(tx, v) }); !ok {
			t.Error("writer aborted")
		}
	}
	for _, c := range []struct {
		name   string
		pinned bool
		body   func(t *testing.T, e *env, tx *Tx)
		// wantOK: the attempt commits, having read b == 5 through one
		// extension; otherwise it aborts with CauseConflict.
		wantOK    bool
		wantHeld  bool   // the abort names a (locked by a commit in flight)
		wantClock uint64 // how far the clock moved
	}{
		{"unread commit stamp extends", false, func(t *testing.T, e *env, tx *Tx) {
			e.a.Get(tx)
			commitB(t, e, 5)
		}, true, false, 1},
		{"unread plain write extends", false, func(t *testing.T, e *env, tx *Tx) {
			e.a.Get(tx)
			e.b.Set(nil, 5)
		}, true, false, 1},
		{"changed read aborts", false, func(t *testing.T, e *env, tx *Tx) {
			e.a.Get(tx)
			e.a.Set(nil, 9)  // ticks the clock by 1
			commitB(t, e, 5) // stamps b one past that
		}, false, false, 2},
		{"read locked by a commit in flight aborts", false, func(t *testing.T, e *env, tx *Tx) {
			e.a.Get(tx)
			commitB(t, e, 5)
			e.unlock = lockWord(t, &e.a.ver)
		}, false, true, 1},
		{"pinned never extends", true, func(t *testing.T, e *env, tx *Tx) {
			e.a.Get(tx)
			commitB(t, e, 5)
		}, false, false, 1},
		{"pinned aborts on a plain write", true, func(t *testing.T, e *env, tx *Tx) {
			e.b.Set(nil, 5)
		}, false, false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := &env{tm: New(Config{})}
			e.writer = e.tm.NewThread()
			th := e.tm.NewThread()
			base := e.tm.Clock().Now()
			var got uint64
			body := func(tx *Tx) {
				c.body(t, e, tx)
				got = e.b.Get(tx)
			}
			var ok bool
			var ab Abort
			if c.pinned {
				ok, ab = th.AtomicAt(PathFast, e.tm.Clock().Now(), body)
			} else {
				ok, ab = th.Atomic(PathFast, body)
			}
			if e.unlock != nil {
				e.unlock()
			}
			exts := th.Stats().Extensions[PathFast]
			switch {
			case c.wantOK && (!ok || got != 5 || exts != 1):
				t.Errorf("ok=%v %+v, b=%d, %d extensions; want a commit reading 5 through 1 extension", ok, ab, got, exts)
			case !c.wantOK && (ok || ab.Cause != CauseConflict || exts != 0):
				t.Errorf("ok=%v %+v, %d extensions; want a conflict abort and no extension", ok, ab, exts)
			case !c.wantOK && (ab.held == &e.a.ver) != c.wantHeld:
				t.Errorf("abort holds %p, a is %p: want named %v", ab.held, &e.a.ver, c.wantHeld)
			}
			if moved := e.tm.Clock().Now() - base; moved != c.wantClock {
				t.Errorf("clock moved by %d, want %d", moved, c.wantClock)
			}
			if c.pinned {
				// The clock was raised to b's stamp: a fresh pin covers it.
				if ok, ab := th.AtomicAt(PathFast, Pin(), func(tx *Tx) { got = e.b.Get(tx) }); !ok || got != 5 {
					t.Errorf("fresh pin: ok=%v %+v b=%d, want a commit reading 5", ok, ab, got)
				}
			}
		})
	}
}

// TestInBodyOpacity: two writers keep three chains of cells equal — a
// chain of Words holding v, one of Pairs holding (v, ^v) and one of Refs
// to a node holding v, all written by one transaction — and two more
// keep stamping an unrelated cell, one transactionally and one outside
// any transaction. Two readers read the noise cell between the chains'
// cells, so their snapshots keep extending; a third begins each attempt
// at a Clock.Pin value (AtomicAt), so its snapshot never moves. Every
// reader compares each cell it reads with the first Word inside the
// attempt, before it commits: a zombie read, one the snapshot does not
// cover (a torn Pair among them), fails the test even if its attempt
// later aborts.
func TestInBodyOpacity(t *testing.T) {
	t.Parallel()
	const chain = 6
	type node struct{ v uint64 }
	tm := New(Config{})
	var (
		words [chain]Word
		pairs [chain]Pair
		refs  [chain]Ref[node]
		noise Word
	)
	for i := range refs {
		refs[i].Init(&node{})
		pairs[i].Init(0, ^uint64(0))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	loop := func(body func(th *Thread)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := tm.NewThread()
			for !stop.Load() {
				body(th)
				runtime.Gosched() // interleave finely, even on one CPU
			}
		}()
	}
	for w := 0; w < 2; w++ {
		loop(func(th *Thread) {
			th.Atomic(PathFast, func(tx *Tx) {
				v := words[0].Get(tx) + 1
				n := &node{v}
				for i := range chain {
					words[i].Set(tx, v)
					pairs[i].Set(tx, v, ^v)
					refs[i].Set(tx, n)
				}
			})
		})
	}
	loop(func(th *Thread) {
		th.Atomic(PathFast, func(tx *Tx) { noise.Set(tx, noise.Get(tx)+1) })
	})
	loop(func(*Thread) { noise.Set(nil, noise.Get(nil)+1) })

	var readers sync.WaitGroup
	var zombies, exts, pinnedCommits atomic.Uint64
	// read is one reader's attempt body; the extending readers read the
	// noise cell between the chains' cells.
	read := func(tx *Tx, i int, extending bool) {
		first := words[0].Get(tx)
		check := func(v uint64) {
			if v != first {
				zombies.Add(1)
			}
		}
		for j := range chain {
			if j == chain/2 && i%4 == 0 {
				runtime.Gosched() // let the writers in mid-attempt
			}
			if extending {
				noise.Get(tx)
			}
			check(words[j].Get(tx))
			a, b := pairs[j].Get(tx)
			check(a)
			check(^b)
			check(refs[j].Get(tx).v)
		}
	}
	for r := 0; r < 3; r++ {
		pinned := r == 2
		readers.Add(1)
		go func() {
			defer readers.Done()
			th := tm.NewThread()
			// progress is what shows the reader exercised its protocol:
			// extensions, or commits of pinned attempts.
			progress := func() uint64 {
				if pinned {
					return th.Stats().Commits[PathMiddle]
				}
				return th.Stats().Extensions[PathMiddle]
			}
			start := time.Now()
			for i := 0; i < 40000 || (progress() == 0 && time.Since(start) < 10*time.Second); i++ {
				if pinned {
					th.AtomicAt(PathMiddle, Pin(), func(tx *Tx) { read(tx, i, false) })
				} else {
					th.Atomic(PathMiddle, func(tx *Tx) { read(tx, i, true) })
				}
			}
			if pinned {
				pinnedCommits.Add(progress())
			} else {
				exts.Add(progress())
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	wg.Wait()
	if n := zombies.Load(); n != 0 {
		t.Fatalf("%d reads inside attempts saw the chains unequal", n)
	}
	if exts.Load() == 0 {
		t.Fatal("no reader snapshot ever extended: the test exercised nothing")
	}
	if pinnedCommits.Load() == 0 {
		t.Fatal("no pinned reader ever committed: the test exercised nothing")
	}
	t.Logf("%d snapshot extensions, %d pinned commits", exts.Load(), pinnedCommits.Load())
}
