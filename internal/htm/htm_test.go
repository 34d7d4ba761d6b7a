package htm

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"htmtree/internal/fault"
)

func TestWordNonTxBasics(t *testing.T) {
	t.Parallel()
	var w Word
	if got := w.Get(nil); got != 0 {
		t.Fatalf("zero value = %d, want 0", got)
	}
	w.Set(nil, 42)
	if got := w.Get(nil); got != 42 {
		t.Fatalf("after Set = %d, want 42", got)
	}
	if !w.CAS(nil, 42, 43) {
		t.Fatal("CAS(42,43) failed")
	}
	if w.CAS(nil, 42, 99) {
		t.Fatal("CAS with stale expected succeeded")
	}
	if got := w.Add(7); got != 50 {
		t.Fatalf("Add = %d, want 50", got)
	}
	if got := w.Add(^uint64(0)); got != 49 { // -1 in two's complement
		t.Fatalf("Add(-1) = %d, want 49", got)
	}
}

func TestRefNonTxBasics(t *testing.T) {
	t.Parallel()
	type node struct{ k int }
	var r Ref[node]
	if got := r.Get(nil); got != nil {
		t.Fatalf("zero value = %v, want nil", got)
	}
	a, b := &node{1}, &node{2}
	r.Set(nil, a)
	if got := r.Get(nil); got != a {
		t.Fatalf("Get = %v, want %v", got, a)
	}
	if !r.CAS(nil, a, b) {
		t.Fatal("CAS(a,b) failed")
	}
	if r.CAS(nil, a, b) {
		t.Fatal("stale CAS succeeded")
	}
	r.Set(nil, nil)
	if got := r.Get(nil); got != nil {
		t.Fatalf("Get after Set(nil) = %v, want nil", got)
	}
}

func TestTxCommitAndVisibility(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var x, y Word
	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		x.Set(tx, 1)
		y.Set(tx, 2)
		if got := x.Get(tx); got != 1 {
			t.Errorf("read-own-write x = %d, want 1", got)
		}
	})
	if !ok {
		t.Fatalf("commit failed: %+v", ab)
	}
	if x.Get(nil) != 1 || y.Get(nil) != 2 {
		t.Fatalf("post-commit values = %d,%d want 1,2", x.Get(nil), y.Get(nil))
	}
}

func TestTxExplicitAbortHasNoEffect(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var x Word
	x.Set(nil, 10)
	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		x.Set(tx, 99)
		tx.Abort(7)
	})
	if ok {
		t.Fatal("aborted transaction reported commit")
	}
	if ab.Cause != CauseExplicit || ab.Code != 7 {
		t.Fatalf("abort = %+v, want explicit code 7", ab)
	}
	if got := x.Get(nil); got != 10 {
		t.Fatalf("x = %d after abort, want 10", got)
	}
}

func TestTxConflictWithNonTxWrite(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var x, y Word
	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		_ = x.Get(tx)
		// A non-transactional write from "another thread" (simulated
		// inline; the cell API does not care which goroutine writes).
		x.Set(nil, 5)
		y.Set(tx, 1)
	})
	if ok {
		t.Fatal("transaction with invalidated read set committed")
	}
	if ab.Cause != CauseConflict {
		t.Fatalf("cause = %v, want conflict", ab.Cause)
	}
	if y.Get(nil) != 0 {
		t.Fatal("aborted write became visible")
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

// TestAwaitCommit: an attempt that loses to a commit in flight — at a
// read, at locking its write set, or at validating its read set — reports
// the commit's cell, and AwaitCommit returns only once that cell is
// unlocked. An attempt that lost to a commit already over waits for
// nothing.
func TestAwaitCommit(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var x, y, z Word
	for _, c := range []struct {
		name string
		body func(tx *Tx, lock func())
	}{
		{"read", func(tx *Tx, lock func()) { lock(); x.Get(tx) }},
		{"write", func(tx *Tx, lock func()) { x.Set(tx, 1); lock() }},
		{"validate", func(tx *Tx, lock func()) {
			x.Get(tx)
			z.Set(nil, z.Get(nil)+1) // another commit: validation is due
			lock()
			y.Set(tx, 1)
		}},
	} {
		var unlock func()
		ok, ab := th.Atomic(PathFast, func(tx *Tx) {
			c.body(tx, func() { unlock = lockWord(t, &x.ver) })
		})
		if ok || ab.Cause != CauseConflict || ab.held != &x.ver {
			unlock()
			t.Fatalf("%s: ok=%v %+v, want a conflict abort holding x", c.name, ok, ab)
		}
		done := make(chan struct{})
		go func() { ab.AwaitCommit(); close(done) }()
		select {
		case <-done:
			t.Fatalf("%s: AwaitCommit returned while the cell was locked", c.name)
		case <-time.After(20 * time.Millisecond):
		}
		unlock()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: AwaitCommit still waiting after the unlock", c.name)
		}
	}

	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		x.Get(tx)
		x.Set(nil, 5)
		y.Set(tx, 1)
	})
	if ok || ab.Cause != CauseConflict || ab.held != nil {
		t.Fatalf("conflict with a finished write: ok=%v %+v, want a conflict abort holding nothing", ok, ab)
	}
	ab.AwaitCommit()
}

// TestTxOpacitySnapshotRead: a cell written after the attempt began is
// read through a snapshot extension when nothing the attempt read has
// changed — the new value, and the attempt commits — and aborts the
// attempt when a cell already in its read set was written too, whether
// the attempt next reads that cell or another.
func TestTxOpacitySnapshotRead(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var x, y Word
	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		_ = y.Get(tx)
		x.Set(nil, 1) // stamp x past rv
		if got := x.Get(tx); got != 1 {
			t.Errorf("extended read of a post-begin write = %d, want 1", got)
		}
	})
	if !ok {
		t.Fatalf("read of a post-begin write to an unread cell aborted: %+v", ab)
	}
	if got := th.Stats().Extensions[PathFast]; got != 1 {
		t.Fatalf("extensions = %d, want 1", got)
	}
	for _, next := range []*Word{&x, &y} {
		ok, ab := th.Atomic(PathFast, func(tx *Tx) {
			_ = x.Get(tx)
			x.Set(nil, x.Get(nil)+1) // written after being read
			y.Set(nil, y.Get(nil)+1)
			_ = next.Get(tx) // must abort: x changed under the snapshot
			t.Error("read past a changed read set did not abort")
		})
		if ok || ab.Cause != CauseConflict {
			t.Fatalf("ok=%v abort=%+v, want conflict abort", ok, ab)
		}
	}
	if got := th.Stats().Extensions[PathFast]; got != 1 {
		t.Fatalf("extensions = %d after two aborted ones, want 1", got)
	}
}

func TestTxCapacityAbort(t *testing.T) {
	t.Parallel()
	tm := New(Config{ReadCapacity: 4, WriteCapacity: 4})
	th := tm.NewThread()
	cells := make([]Word, 8)

	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		for i := range cells {
			_ = cells[i].Get(tx)
		}
	})
	if ok || ab.Cause != CauseCapacity {
		t.Fatalf("read overflow: ok=%v abort=%+v, want capacity", ok, ab)
	}

	ok, ab = th.Atomic(PathFast, func(tx *Tx) {
		for i := range cells {
			cells[i].Set(tx, 1)
		}
	})
	if ok || ab.Cause != CauseCapacity {
		t.Fatalf("write overflow: ok=%v abort=%+v, want capacity", ok, ab)
	}
}

// TestTxAccessAbortInjector: the fault plan's PointTxAccess seam is the
// TM's one abort injector. A rule with Every: 1 aborts each access —
// read or write — with CauseSpurious, or with the rule's Cause when it
// names one. A Prob rule is reproducible from the plan's seed: on one
// thread, two TMs given equal plans abort at the same encounter indices.
func TestTxAccessAbortInjector(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		cause uint8
		want  AbortCause
	}{
		{0, CauseSpurious},
		{uint8(CauseCapacity), CauseCapacity},
		{uint8(CauseConflict), CauseConflict},
	} {
		plan := fault.New(1, fault.Rule{Point: fault.PointTxAccess, Every: 1, Cause: tc.cause})
		tm := New(Config{Faults: plan})
		th := tm.NewThread()
		var x Word
		for _, body := range []func(tx *Tx){
			func(tx *Tx) { _ = x.Get(tx) },
			func(tx *Tx) { x.Set(tx, 1) },
		} {
			if ok, ab := th.Atomic(PathFast, body); ok || ab.Cause != tc.want {
				t.Fatalf("rule cause %d: ok=%v abort=%+v, want %v", tc.cause, ok, ab, tc.want)
			}
		}
		if hits, fires := plan.Hits(fault.PointTxAccess), plan.Fires(fault.PointTxAccess); hits != 2 || fires != 2 {
			t.Fatalf("rule cause %d: %d encounters, %d fires, want 2 and 2", tc.cause, hits, fires)
		}
		if got := tm.Stats().Aborts[PathFast][tc.want]; got != 2 {
			t.Fatalf("rule cause %d: Aborts[fast][%v] = %d, want 2", tc.cause, tc.want, got)
		}
	}

	// One access per attempt, so attempt i is encounter i.
	aborted := func(seed uint64) []int {
		tm := New(Config{Faults: fault.New(seed, fault.Rule{Point: fault.PointTxAccess, Prob: 0.25})})
		th := tm.NewThread()
		var x Word
		var at []int
		for i := 0; i < 512; i++ {
			if ok, ab := th.Atomic(PathFast, func(tx *Tx) { _ = x.Get(tx) }); !ok {
				if ab.Cause != CauseSpurious {
					t.Fatalf("attempt %d: abort %+v, want spurious", i, ab)
				}
				at = append(at, i)
			}
		}
		return at
	}
	a, b := aborted(7), aborted(7)
	if len(a) < 512/8 || len(a) > 512/2 {
		t.Fatalf("%d of 512 attempts aborted at Prob 0.25", len(a))
	}
	if !slices.Equal(a, b) {
		t.Fatalf("equal plans aborted at different encounters:\n%v\n%v", a, b)
	}
	if slices.Equal(a, aborted(8)) {
		t.Fatal("the abort pattern does not depend on the seed")
	}
}

func TestNestedAtomicPanics(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Atomic did not panic")
		}
	}()
	th.Atomic(PathFast, func(*Tx) {
		th.Atomic(PathFast, func(*Tx) {})
	})
}

func TestUserPanicPropagates(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		// The thread must be reusable after a user panic.
		if ok, _ := th.Atomic(PathFast, func(*Tx) {}); !ok {
			t.Fatal("thread unusable after user panic")
		}
	}()
	th.Atomic(PathFast, func(*Tx) { panic("boom") })
}

func TestStatsCounting(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	var x Word
	th.Atomic(PathFast, func(tx *Tx) { x.Set(tx, 1) })
	th.Atomic(PathMiddle, func(tx *Tx) { tx.Abort(1) })
	s := tm.Stats()
	if s.Commits[PathFast] != 1 {
		t.Fatalf("fast commits = %d, want 1", s.Commits[PathFast])
	}
	if s.Aborts[PathMiddle][CauseExplicit] != 1 {
		t.Fatalf("middle explicit aborts = %d, want 1", s.Aborts[PathMiddle][CauseExplicit])
	}
	if s.TotalAborts(PathMiddle) != 1 {
		t.Fatalf("TotalAborts = %d, want 1", s.TotalAborts(PathMiddle))
	}
}

// TestConcurrentCounter increments a shared counter from many goroutines
// using transactions (retrying on abort) and checks no increment is lost.
func TestConcurrentCounter(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	const goroutines = 8
	const perG = 2000
	var c Word
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := tm.NewThread()
			for i := 0; i < perG; i++ {
				for {
					ok, _ := th.Atomic(PathFast, func(tx *Tx) {
						c.Set(tx, c.Get(tx)+1)
					})
					if ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Get(nil); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestStrongAtomicity checks that non-transactional readers never observe
// a torn multi-cell commit: transactions keep x == y, and a racing
// non-transactional reader that snapshots both must agree.
func TestStrongAtomicity(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	var x, y Word
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := tm.NewThread()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				th.Atomic(PathFast, func(tx *Tx) {
					v := x.Get(tx) + 1
					x.Set(tx, v)
					y.Set(tx, v)
				})
			}
		}(uint64(g))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200000; i++ {
			// Reading y first then x bounds x's value from below by y's:
			// with atomic commits, xv >= yv always holds.
			yv := y.Get(nil)
			xv := x.Get(nil)
			if xv < yv {
				t.Errorf("torn read: x=%d < y=%d", xv, yv)
				break
			}
		}
		close(stop)
	}()
	wg.Wait()
}

// TestTornCommitInvisible checks a transactional reader sees the two
// halves of a committed pair consistently.
func TestTornCommitInvisible(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	var x, y Word
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		th := tm.NewThread()
		for {
			select {
			case <-stop:
				return
			default:
			}
			th.Atomic(PathFast, func(tx *Tx) {
				v := x.Get(tx) + 1
				x.Set(tx, v)
				y.Set(tx, v)
			})
		}
	}()

	th := tm.NewThread()
	for i := 0; i < 100000; i++ {
		th.Atomic(PathMiddle, func(tx *Tx) {
			xv := x.Get(tx)
			yv := y.Get(tx)
			if xv != yv {
				t.Errorf("inconsistent snapshot: x=%d y=%d", xv, yv)
			}
		})
	}
	close(stop)
	wg.Wait()
}

// TestQuickSequentialModel cross-checks single-threaded transactional
// execution against a plain model: any committed sequence of ops must
// leave cells equal to the model.
func TestQuickSequentialModel(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	f := func(ops []uint16) bool {
		const n = 8
		var cells [n]Word
		var model [n]uint64
		for _, op := range ops {
			idx := int(op) % n
			val := uint64(op >> 4)
			switch (op >> 2) % 3 {
			case 0:
				cells[idx].Set(nil, val)
				model[idx] = val
			case 1:
				ok, _ := th.Atomic(PathFast, func(tx *Tx) {
					cells[idx].Set(tx, cells[idx].Get(tx)+val)
				})
				if !ok {
					return false
				}
				model[idx] += val
			case 2:
				if cells[idx].Get(nil) != model[idx] {
					return false
				}
			}
		}
		for i := 0; i < n; i++ {
			if cells[i].Get(nil) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPathAndCauseStrings(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		got, want string
	}{
		{PathFast.String(), "fast"},
		{PathMiddle.String(), "middle"},
		{PathFallback.String(), "fallback"},
		{CauseExplicit.String(), "explicit"},
		{CauseConflict.String(), "conflict"},
		{CauseCapacity.String(), "capacity"},
		{CauseSpurious.String(), "spurious"},
		{CauseNone.String(), "none"},
	} {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}

// TestForeignPanicDropsLog verifies a foreign panic zeroes the write
// set's buffered ptr entries (not merely truncates), so an abandoned
// attempt on an idle thread cannot pin nodes against reclamation.
func TestForeignPanicDropsLog(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	type node struct{ k int }
	var r Ref[node]
	var w Word
	func() {
		defer func() { recover() }()
		th.Atomic(PathFast, func(tx *Tx) {
			_ = w.Get(tx)
			r.Set(tx, &node{1})
			panic("boom")
		})
	}()
	tx := &th.tx
	if len(tx.reads) != 0 || len(tx.writes) != 0 {
		t.Fatalf("log not truncated: %d reads, %d writes", len(tx.reads), len(tx.writes))
	}
	for i := range tx.writes[:cap(tx.writes)] {
		if e := &tx.writes[:cap(tx.writes)][i]; e.ptr != nil || e.c != nil {
			t.Fatalf("write entry %d not zeroed: %+v", i, e)
		}
	}
	for i := range tx.reads[:cap(tx.reads)] {
		if e := &tx.reads[:cap(tx.reads)][i]; e.ver != nil {
			t.Fatalf("read entry %d not zeroed: %+v", i, e)
		}
	}
}

// TestThreadStatsConcurrent hammers Thread.Stats from a reporting
// goroutine while the owner commits and aborts transactions; under the
// race detector this fails if either side bypasses the atomic counters.
func TestThreadStatsConcurrent(t *testing.T) {
	t.Parallel()
	tm := New(Config{})
	th := tm.NewThread()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = th.Stats()
			_ = tm.Stats()
		}
	}()
	var x Word
	for i := 0; i < 20000; i++ {
		th.Atomic(PathFast, func(tx *Tx) { x.Set(tx, uint64(i)) })
		th.Atomic(PathMiddle, func(tx *Tx) { tx.Abort(1) })
	}
	close(stop)
	wg.Wait()
	s := th.Stats()
	if s.Commits[PathFast] != 20000 || s.Aborts[PathMiddle][CauseExplicit] != 20000 {
		t.Fatalf("stats = %+v, want 20000 fast commits and middle explicit aborts", s)
	}
}

// TestThreadKeepsOffNeighbouringCacheLines: see the ebr test of the same
// name; the owner writes the Tx and the statistics on every operation,
// and two workers' Threads share a size class.
func TestThreadKeepsOffNeighbouringCacheLines(t *testing.T) {
	var th Thread
	first, end := unsafe.Offsetof(th.tm), unsafe.Offsetof(th.ab)+unsafe.Sizeof(th.ab)
	if first < 64 || unsafe.Sizeof(th)-end < 64 {
		t.Fatalf("fields span bytes %d..%d of %d: want 64 bytes of padding at each end", first, end, unsafe.Sizeof(th))
	}
}
