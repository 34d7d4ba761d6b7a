package bst

import (
	"runtime"
	"sync/atomic"
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

// helpHook is the callback of a fault.PointFallbackOwner rule: tests arm
// it only for the operation under scrutiny so setup traffic does not
// trip it.
type helpHook struct {
	fn atomic.Value // func()
}

func (p *helpHook) point() {
	if f, ok := p.fn.Load().(func()); ok && f != nil {
		f()
	}
}

func (p *helpHook) arm(f func()) { p.fn.Store(f) }

// helpableConfig returns a TLE configuration whose fast path can never
// commit (every transactional access aborts spuriously), so every
// update reaches the helpable fallback deterministically.
func helpableConfig(hook *helpHook) Config {
	cfg := Config{
		Algorithm: engine.AlgTLE,
		HTM:       htm.Config{SpuriousEvery: 1},
		Engine: engine.Config{
			HelpableFallback: true,
			AttemptLimit:     1,
		},
	}
	if hook != nil {
		cfg.Engine.Faults = fault.New(0, fault.Rule{
			Point: fault.PointFallbackOwner, Every: 1, Func: hook.point,
		})
	}
	return cfg
}

// TestHelpableHelperCompletes parks the announcing owner right after it
// publishes its descriptor (before it executes anything) and verifies a
// helper thread completes the operation alone: the protocol's central
// property — the announcer is not on the critical path.
func TestHelpableHelperCompletes(t *testing.T) {
	t.Parallel()
	hook := &helpHook{}
	tr := New(helpableConfig(hook))
	h1 := tr.newHandle()
	h2 := tr.newHandle()

	announced := make(chan struct{})
	resume := make(chan struct{})
	var fired atomic.Bool
	hook.arm(func() {
		// CAS guard, not sync.Once: other operations (the helper's
		// searches) also pass the hook and must not serialize behind
		// the parked owner.
		if fired.CompareAndSwap(false, true) {
			announced <- struct{}{}
			<-resume
		}
	})

	done := make(chan struct{})
	var old uint64
	var existed bool
	go func() {
		defer close(done)
		old, existed = h1.Insert(42, 7)
	}()
	<-announced
	// The owner is parked after announcing; the helper must finish the
	// whole operation (acquire the word, install, run, release).
	if !h2.e.Help() {
		t.Fatal("helper found nothing to help")
	}
	if v, ok := h2.Search(42); !ok || v != 7 {
		t.Fatalf("after help, before owner resumed: Search(42) = (%d,%v), want (7,true)", v, ok)
	}
	close(resume)
	<-done
	if existed || old != 0 {
		t.Fatalf("owner Insert returned (%d,%v), want (0,false)", old, existed)
	}
	// The finished descriptor was retracted: nothing left to help.
	if h2.e.Help() {
		t.Fatal("helped a finished operation")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHelpableHelperCompletesDelete is the delete variant, checking the
// helper delivers the removed value through the descriptor and that the
// removed nodes are retired exactly once across both handles.
func TestHelpableHelperCompletesDelete(t *testing.T) {
	t.Parallel()
	hook := &helpHook{}
	tr := New(helpableConfig(hook))
	h1 := tr.newHandle()
	h2 := tr.newHandle()
	h1.Insert(5, 50)
	h1.Insert(10, 100)

	base := retired(h1) + retired(h2)
	announced := make(chan struct{})
	resume := make(chan struct{})
	var fired atomic.Bool
	hook.arm(func() {
		if fired.CompareAndSwap(false, true) {
			announced <- struct{}{}
			<-resume
		}
	})

	done := make(chan struct{})
	var old uint64
	var existed bool
	go func() {
		defer close(done)
		old, existed = h1.Delete(5)
	}()
	<-announced
	// Helping runs the announced operation's arguments and result past
	// the helper's handle, not through it.
	scratch := engine.Result{Val: 12345, Found: true}
	h2.argKey, h2.argVal, h2.res = 999, 998, scratch
	if !h2.e.Help() {
		t.Fatal("helper found nothing to help")
	}
	if h2.argKey != 999 || h2.argVal != 998 || h2.res != scratch {
		t.Fatalf("helping rewrote the helper's own scratch: args (%d,%d), result %+v", h2.argKey, h2.argVal, h2.res)
	}
	if _, ok := h2.Search(5); ok {
		t.Fatal("key 5 still present after helped delete")
	}
	close(resume)
	<-done
	if !existed || old != 50 {
		t.Fatalf("owner Delete returned (%d,%v), want (50,true)", old, existed)
	}
	// The general-case BST delete unlinks parent, leaf, and sibling:
	// exactly three retirements, by whichever thread installed the
	// attempt, and no double retirement by the other.
	if d := retired(h1) + retired(h2) - base; d != 3 {
		t.Fatalf("helped delete retired %d nodes, want exactly 3", d)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHelpableOwnerCompletes runs the protocol with no helper at all:
// the owner drives its own descriptor, and afterwards the slot is clean.
func TestHelpableOwnerCompletes(t *testing.T) {
	t.Parallel()
	tr := New(helpableConfig(nil))
	h1 := tr.newHandle()
	h2 := tr.newHandle()
	if old, existed := h1.Insert(1, 2); existed || old != 0 {
		t.Fatalf("Insert(1) = (%d,%v), want (0,false)", old, existed)
	}
	if old, existed := h1.Insert(1, 3); !existed || old != 2 {
		t.Fatalf("re-Insert(1) = (%d,%v), want (2,true)", old, existed)
	}
	if old, existed := h1.Delete(1); !existed || old != 3 {
		t.Fatalf("Delete(1) = (%d,%v), want (3,true)", old, existed)
	}
	if old, existed := h1.Delete(1); existed || old != 0 {
		t.Fatalf("re-Delete(1) = (%d,%v), want (0,false)", old, existed)
	}
	if h2.e.Help() {
		t.Fatal("helper found work after the owner finished everything")
	}
	if tr.Engine().Stats().Fallback == 0 {
		t.Fatal("no operation completed on the fallback path; test is not exercising the helpable protocol")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHelpableBothRace lets the owner and a helper drive the same
// descriptor concurrently and verifies exactly-once effects: one
// result, one set of retirements, a consistent tree.
func TestHelpableBothRace(t *testing.T) {
	t.Parallel()
	for round := 0; round < 50; round++ {
		hook := &helpHook{}
		tr := New(helpableConfig(hook))
		h1 := tr.newHandle()
		h2 := tr.newHandle()
		h1.Insert(5, 50)
		h1.Insert(10, 100)

		base := retired(h1) + retired(h2)
		announced := make(chan struct{})
		var fired atomic.Bool
		hook.arm(func() {
			if fired.CompareAndSwap(false, true) {
				close(announced)
			}
		})

		done := make(chan struct{})
		var old uint64
		var existed bool
		go func() {
			defer close(done)
			old, existed = h1.Delete(5)
		}()
		<-announced
		// Race the owner to the descriptor until the owner reports done.
		for {
			select {
			case <-done:
			default:
				h2.e.Help()
				runtime.Gosched()
				continue
			}
			break
		}
		if !existed || old != 50 {
			t.Fatalf("round %d: Delete(5) = (%d,%v), want (50,true)", round, old, existed)
		}
		if _, ok := h2.Search(5); ok {
			t.Fatalf("round %d: key 5 still present", round)
		}
		if v, ok := h2.Search(10); !ok || v != 100 {
			t.Fatalf("round %d: Search(10) = (%d,%v), want (100,true)", round, v, ok)
		}
		if d := retired(h1) + retired(h2) - base; d != 3 {
			t.Fatalf("round %d: raced delete retired %d nodes, want exactly 3", round, d)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHelpableConcurrentKeySum is the protocol under real concurrency:
// every update forced through the helpable fallback, with the keysum
// harness's per-thread accounting cross-checked against the tree.
func TestHelpableConcurrentKeySum(t *testing.T) {
	t.Parallel()
	testConcurrentKeySum(t, helpableConfig(nil), 4, 2000, 32)
}

// TestHelpableConcurrentKeySumMixed keeps the fast path mostly alive
// (occasional spurious aborts) so helpable fallbacks interleave with
// fast-path commits, exercising the word-subscription exclusion.
func TestHelpableConcurrentKeySumMixed(t *testing.T) {
	t.Parallel()
	testConcurrentKeySum(t, Config{
		Algorithm: engine.AlgTLE,
		HTM:       htm.Config{SpuriousEvery: 40},
		Engine:    engine.Config{HelpableFallback: true, AttemptLimit: 2},
	}, 4, 3000, 64)
}

// retired sums a handle's node retirements on every route.
func retired(h *Handle) uint64 {
	s := h.ReclaimStats()
	return s.RetiredFast + s.RetiredGrace
}

// TestHelpableOwnerDeath is the permanent-failure variant of the parked
// owner tests above: the fault plane kills the announcing owner right
// after it publishes its delete descriptor — the goroutine parks
// forever, it never executes, finishes, or retires anything. A helper
// must complete the operation exactly once (result visible, exactly
// three retirements, slot retracted) while the owner is provably still
// dead; only the test's teardown releases it, at which point the owner
// observes the terminal attempt and returns the helper's result.
func TestHelpableOwnerDeath(t *testing.T) {
	t.Parallel()
	plan := fault.New(1, fault.Rule{
		Point: fault.PointFallbackOwner,
		// The two prefill inserts are fallback entries 1 and 2; kill
		// the third entry — the delete — and nothing after it.
		Every: 1, After: 2, Count: 1,
		Kill: true,
	})
	cfg := helpableConfig(nil)
	cfg.Engine.Faults = plan
	tr := New(cfg)
	h1 := tr.newHandle()
	h2 := tr.newHandle()
	h1.Insert(5, 50)
	h1.Insert(10, 100)

	base := retired(h1) + retired(h2)
	done := make(chan struct{})
	var old uint64
	var existed bool
	go func() {
		defer close(done)
		old, existed = h1.Delete(5)
	}()
	// The fire counter increments just before the owner parks; one
	// yield later the descriptor is the only announced work.
	for plan.Fires(fault.PointFallbackOwner) == 0 {
		runtime.Gosched()
	}
	if !h2.e.Help() {
		t.Fatal("helper found nothing to help")
	}
	if _, ok := h2.Search(5); ok {
		t.Fatal("key 5 still present after helped delete")
	}
	if d := retired(h1) + retired(h2) - base; d != 3 {
		t.Fatalf("helped delete retired %d nodes, want exactly 3 (owner is dead; the helper owns retirement)", d)
	}
	// The finished descriptor was retracted even though its owner never
	// woke: release is derived from the terminal attempt, not owned.
	if h2.e.Help() {
		t.Fatal("helped a finished operation")
	}
	select {
	case <-done:
		t.Fatal("killed owner returned before release")
	default:
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Teardown: unpark the owner. It finds the terminal attempt and
	// must deliver the helper's result — not re-execute.
	plan.ReleaseKilled()
	<-done
	if !existed || old != 50 {
		t.Fatalf("released owner Delete returned (%d,%v), want (50,true)", old, existed)
	}
	if d := retired(h1) + retired(h2) - base; d != 3 {
		t.Fatalf("retirements after owner release = %d, want still 3 (no re-execution)", d)
	}
}

// TestHelpedDeleteDropsAbortedAttemptResidue: an operation's fast-path
// attempt can run its whole body — drawing nodes and listing the nodes
// it unlinks for retirement — and then fail to commit. If a helper then
// completes the operation's announced fallback on its own, the owner
// never starts another attempt, and nothing but the result delivery
// stands between that stale list and the Settle that follows Run. The
// stale removals must be dropped: the helper retires what it removed,
// and a node the aborted attempt "removed" may still be linked (retiring
// it twice, or while linked, hands it to two inserts). The hook plants
// the residue exactly where an aborted attempt leaves it — in the
// owner's pool, after its last own attempt, before the helper runs.
func TestHelpedDeleteDropsAbortedAttemptResidue(t *testing.T) {
	t.Parallel()
	hook := &helpHook{}
	tr := New(helpableConfig(hook))
	h1 := tr.newHandle()
	h2 := tr.newHandle()
	h1.Insert(5, 50)
	h1.Insert(10, 100)
	_, _, linked := tr.search(nil, 10) // stays in the tree throughout

	base := retired(h1) + retired(h2)
	announced := make(chan struct{})
	resume := make(chan struct{})
	var fired atomic.Bool
	hook.arm(func() {
		if fired.CompareAndSwap(false, true) {
			h1.newLeaf(99, 0) // drawn, never published
			h1.remove(linked) // "unlinked" by an attempt that did not commit
			announced <- struct{}{}
			<-resume
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		h1.Delete(5)
	}()
	<-announced
	if !h2.e.Help() {
		t.Fatal("helper found nothing to help")
	}
	close(resume)
	<-done
	if d := retired(h1) + retired(h2) - base; d != 3 {
		t.Fatalf("helped delete retired %d nodes, want exactly the helper's 3", d)
	}
	if v, ok := h1.Search(10); !ok || v != 100 {
		t.Fatalf("Search(10) = (%d,%v) after the helped delete, want (100,true)", v, ok)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHelpLostInstallDropsAttempt: a helping attempt that builds its
// record only to find another attempt already installed in the
// descriptor must leave nothing behind — the nodes it drew go back to
// the pool unpublished, nothing is retired, and the tree is untouched.
func TestHelpLostInstallDropsAttempt(t *testing.T) {
	t.Parallel()
	tr := New(helpableConfig(nil))
	h := tr.newHandle()
	h.Insert(5, 50)
	d := &engine.HelpDesc{Kind: engine.HelpInsert, Key: 7, Val: 70}
	if !d.Install(&engine.HelpAttempt{}) {
		t.Fatal("install into an empty descriptor failed")
	}
	before, pooled := h.ReclaimStats(), h.PoolSize()
	h.helpExec(d)
	h.settle(htm.PathFallback) // what a later operation of this handle would do
	after := h.ReclaimStats()
	drew := (after.Fresh + after.Reused) - (before.Fresh + before.Reused)
	if drew != 2 || h.PoolSize() != pooled+int(after.Fresh-before.Fresh) {
		t.Fatalf("attempt drew %d nodes and the pool went from %d to %d: want both drawn nodes back in it",
			drew, pooled, h.PoolSize())
	}
	if retired(h) != before.RetiredFast+before.RetiredGrace {
		t.Fatal("a lost install retired nodes")
	}
	if _, ok := h.Search(7); ok {
		t.Fatal("a record that lost the install ran")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
