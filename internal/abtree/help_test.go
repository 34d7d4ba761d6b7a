package abtree

import (
	"runtime"
	"sync/atomic"
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

// helpableConfig returns a TLE configuration whose fast path can never
// commit (every transactional access aborts spuriously), so every
// update reaches the helpable fallback deterministically. Minimum legal
// degree bounds (a=2, b=3) make splits and underfull leaves cheap to
// provoke.
func helpableConfig(preempt func()) Config {
	cfg := Config{
		A:         2,
		B:         3,
		Algorithm: engine.AlgTLE,
		HTM:       htm.Config{SpuriousEvery: 1},
		Engine: engine.Config{
			HelpableFallback: true,
			AttemptLimit:     1,
		},
	}
	if preempt != nil {
		cfg.Engine.Faults = fault.New(0, fault.Rule{
			Point: fault.PointFallbackOwner, Every: 1, Func: preempt,
		})
	}
	return cfg
}

// TestHelpableHelperCompletes parks an announcing owner right after it
// publishes its delete descriptor and has a helper complete the
// operation alone. The committed delete underfills a leaf, so the
// NeedFix verdict must travel through the descriptor back to the owner,
// whose fix loop then restores the degree invariants (a helper cannot
// rebalance — the fix loop re-enters the engine).
func TestHelpableHelperCompletes(t *testing.T) {
	t.Parallel()
	var hook atomic.Value // func()
	tr := New(helpableConfig(func() {
		if f, ok := hook.Load().(func()); ok && f != nil {
			f()
		}
	}))
	h1 := tr.newHandle()
	h2 := tr.newHandle()
	const n = 40
	for k := uint64(1); k <= n; k++ {
		h1.Insert(k, k*10)
	}

	announced := make(chan struct{})
	resume := make(chan struct{})
	var fired atomic.Bool
	hook.Store(func() {
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
		old, existed = h1.Delete(7)
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
	if _, ok := h2.Search(7); ok {
		t.Fatal("key 7 still present after helped delete")
	}
	close(resume)
	<-done
	if !existed || old != 70 {
		t.Fatalf("owner Delete returned (%d,%v), want (70,true)", old, existed)
	}
	// The owner ran its fix loop after the helped commit: strict
	// invariants (no tags, degrees within bounds on the search path)
	// must hold for the quiescent tree.
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		want, wantOK := k*10, true
		if k == 7 {
			want, wantOK = 0, false
		}
		if v, ok := h2.Search(k); ok != wantOK || v != want {
			t.Fatalf("Search(%d) = (%d,%v), want (%d,%v)", k, v, ok, want, wantOK)
		}
	}
}

// TestHelpableConcurrentKeySum drives every update through the helpable
// fallback under real concurrency, with splits and rebalancing steps in
// constant play (tiny degree bounds, small key range).
func TestHelpableConcurrentKeySum(t *testing.T) {
	t.Parallel()
	testConcurrentKeySum(t, helpableConfig(nil), 4, 1500, 32)
}

// TestHelpableConcurrentKeySumMixed keeps the fast path mostly alive so
// helpable fallbacks interleave with fast-path commits.
func TestHelpableConcurrentKeySumMixed(t *testing.T) {
	t.Parallel()
	testConcurrentKeySum(t, Config{
		Algorithm: engine.AlgTLE,
		HTM:       htm.Config{SpuriousEvery: 40},
		Engine:    engine.Config{HelpableFallback: true, AttemptLimit: 2},
	}, 4, 2000, 64)
}

// TestHelpableOwnerDeath kills the announcing owner permanently at the
// fault plane's owner seam: the goroutine parks forever right after
// publishing its delete descriptor. A helper completes the operation
// exactly once — but a helper never runs the owner's deferred fix
// loop, so the committed delete's degree violation is allowed to
// persist while the owner is dead (the documented relaxed-tree
// consequence of a crash). Releasing the owner at teardown must then
// deliver the helper's result AND run the deferred fix, restoring
// strict invariants.
func TestHelpableOwnerDeath(t *testing.T) {
	t.Parallel()
	const n = 40
	// The prefill's fallback-entry count is not n: inserts that split
	// leaves run the owner fix loop, which re-enters the fallback.
	// Replay the identical (deterministic, single-threaded) prefill
	// against a probe plan that counts the seam without ever firing,
	// and kill exactly the first post-prefill entry — the delete.
	probe := fault.New(1, fault.Rule{Point: fault.PointFallbackOwner, Every: 1 << 60})
	pcfg := helpableConfig(nil)
	pcfg.Engine.Faults = probe
	ptr := New(pcfg)
	ph := ptr.newHandle()
	for k := uint64(1); k <= n; k++ {
		ph.Insert(k, k*10)
	}
	prefillEntries := probe.Hits(fault.PointFallbackOwner)

	plan := fault.New(1, fault.Rule{
		Point: fault.PointFallbackOwner,
		Every: 1, After: prefillEntries, Count: 1,
		Kill: true,
	})
	cfg := helpableConfig(nil)
	cfg.Engine.Faults = plan
	tr := New(cfg)
	h1 := tr.newHandle()
	h2 := tr.newHandle()
	for k := uint64(1); k <= n; k++ {
		h1.Insert(k, k*10)
	}

	done := make(chan struct{})
	var old uint64
	var existed bool
	go func() {
		defer close(done)
		old, existed = h1.Delete(7)
	}()
	for plan.Fires(fault.PointFallbackOwner) == 0 {
		runtime.Gosched()
	}
	if !h2.e.Help() {
		t.Fatal("helper found nothing to help")
	}
	if _, ok := h2.Search(7); ok {
		t.Fatal("key 7 still present after helped delete")
	}
	// Finished descriptor retracted despite the dead owner.
	if h2.e.Help() {
		t.Fatal("helped a finished operation")
	}
	select {
	case <-done:
		t.Fatal("killed owner returned before release")
	default:
	}
	// Structural invariants (keys ordered, reachable, no leaks) must
	// hold with the owner dead; strict degree bounds need not — only
	// the dead owner could have repaired the underfull leaf.
	if err := tr.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	// Teardown: unpark the owner. It observes the terminal attempt,
	// returns the helper's result, and runs the deferred fix loop.
	plan.ReleaseKilled()
	<-done
	if !existed || old != 70 {
		t.Fatalf("released owner Delete returned (%d,%v), want (70,true)", old, existed)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after owner release (fix loop must have run): %v", err)
	}
	for k := uint64(1); k <= n; k++ {
		want, wantOK := k*10, true
		if k == 7 {
			want, wantOK = 0, false
		}
		if v, ok := h2.Search(k); ok != wantOK || v != want {
			t.Fatalf("Search(%d) = (%d,%v), want (%d,%v)", k, v, ok, want, wantOK)
		}
	}
}
