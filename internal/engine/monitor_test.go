package engine

import (
	"testing"
	"time"

	"htmtree/internal/htm"
)

// TestMonitorPublishesUpdateCommits verifies, for every algorithm, that
// a completed update operation invalidates a monitor sample taken
// before it, that non-update operations do not, and that a quiescent
// monitor validates.
func TestMonitorPublishesUpdateCommits(t *testing.T) {
	t.Parallel()
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			mon := NewUpdateMonitor(nil)
			tm := htm.New(htm.Config{})
			e := New(Config{Algorithm: alg, Monitor: mon}, tm.Clock())
			th := e.NewThread(tm.NewThread())
			var c htm.Word
			c.Bind(tm.Clock())

			s, ok := mon.Sample()
			if !ok {
				t.Fatal("idle monitor reported an in-flight update")
			}
			if !mon.Validate(s) {
				t.Fatal("idle monitor failed validation")
			}

			update := counterOp(&c)
			update.Update = true
			th.Run(update)
			if mon.Validate(s) {
				t.Fatalf("%s: update did not invalidate the sample", alg)
			}

			s2, ok := mon.Sample()
			if !ok {
				t.Fatal("monitor busy after update completed")
			}
			th.Run(counterOp(&c)) // not an update: must stay invisible
			if !mon.Validate(s2) {
				t.Fatalf("%s: non-update operation invalidated the sample", alg)
			}
		})
	}
}

// TestMonitorQuiesceDrainsAllPaths verifies that, under
// EnableFullDrain, Quiesce waits for an in-flight update on a
// transactional path, not only for bracketed non-transactional ones:
// the update is admitted (Enter) before the gate arrives, so Quiesce
// must not return until it completes.
func TestMonitorQuiesceDrainsAllPaths(t *testing.T) {
	t.Parallel()
	mon := NewUpdateMonitor(nil)
	mon.Bind(htm.NewClock())
	mon.EnableFullDrain()
	mon.Enter() // simulate an update admitted but not yet complete

	quiesced := make(chan struct{})
	go func() {
		release := mon.Quiesce()
		close(quiesced)
		release()
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while an admitted update was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	mon.Exit()
	select {
	case <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce never returned after the update drained")
	}
}

// TestMonitorBracket verifies Bracket behaves like a non-transactional
// update in flight: samples fail while open, and a sample taken before
// fails validation afterwards.
func TestMonitorBracket(t *testing.T) {
	t.Parallel()
	mon := NewUpdateMonitor(nil)
	mon.Bind(htm.NewClock())
	s, ok := mon.Sample()
	if !ok {
		t.Fatal("idle monitor reported an in-flight update")
	}
	done := mon.Bracket()
	if _, ok := mon.Sample(); ok {
		t.Fatal("Sample succeeded while a bracket was open")
	}
	done()
	if _, ok := mon.Sample(); !ok {
		t.Fatal("Sample failed after the bracket closed")
	}
	if mon.Validate(s) {
		t.Fatal("pre-bracket sample validated across the bracket")
	}
}

// TestNilLockedAndSCXHTMBodies verifies what an Op's nil bodies mean.
// Under the TLE lock a nil Locked runs Fast with a nil tx, and a
// monitored update publishes that once — through the non-transactional
// bracket, not also through the version counter its prepared Fast body
// bumps inside a transaction. Under scx-htm a nil SCXHTM runs Fallback in
// both phases.
func TestNilLockedAndSCXHTMBodies(t *testing.T) {
	t.Parallel()
	mon := NewUpdateMonitor(nil)
	tm := htm.New(htm.Config{})
	th := New(Config{Algorithm: AlgTLE, Monitor: mon}, tm.Clock()).NewThread(tm.NewThread())
	var c htm.Word
	c.Bind(tm.Clock())
	s, _ := mon.Sample()
	p := th.Run(Op{Update: true, Fast: func(tx *htm.Tx) {
		if tx != nil {
			tx.Abort(CodeRetry) // drive the operation to the lock
		}
		c.Set(tx, c.Get(tx)+1)
	}})
	if p != htm.PathFallback || c.Get(nil) != 1 {
		t.Fatalf("nil Locked: completed on %v with counter %d, want fallback and 1", p, c.Get(nil))
	}
	if mon.Validate(s) {
		t.Fatal("nil Locked: the locked update did not invalidate the sample")
	}
	if v := mon.txver.Get(nil); v != 0 {
		t.Fatalf("nil Locked: version counter = %d after an update inside the non-tx bracket, want 0", v)
	}

	_, th, _ = newEngineThread(t, htm.Config{}, Config{Algorithm: AlgSCXHTM, AttemptLimit: 3})
	calls := 0
	p = th.Run(Op{Fallback: func() bool { calls++; return calls == 5 }})
	if p != htm.PathFallback || calls != 5 {
		t.Fatalf("nil SCXHTM: completed on %v after %d Fallback calls, want fallback after 5 (3 budgeted + 2)", p, calls)
	}
}
