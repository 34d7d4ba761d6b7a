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

// TestMonitorQuiesceWaitsOutBracketedUpdate verifies the gate's two
// halves: Quiesce does not return while a non-transactional update is
// in flight, and while the gate is held an update's admission (Enter)
// waits until release.
func TestMonitorQuiesceWaitsOutBracketedUpdate(t *testing.T) {
	t.Parallel()
	mon := NewUpdateMonitor(nil)
	mon.Bind(htm.NewClock())
	mon.beginNonTx() // an update on a non-transactional path, mid-flight

	quiesced := make(chan func())
	go func() { quiesced <- mon.Quiesce() }()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while a bracketed update was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	mon.endNonTx()
	var release func()
	select {
	case release = <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce never returned after the update completed")
	}

	admitted := make(chan struct{})
	go func() {
		mon.Enter()
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("Enter admitted an update through a held gate")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("Enter never returned after the gate was released")
	}
	if got := mon.Quiesces(); got != 1 {
		t.Fatalf("Quiesces() = %d, want 1", got)
	}
}

// TestMonitorBracket verifies the non-transactional bracket: samples
// fail while an update is between beginNonTx and endNonTx, and a sample
// taken before it fails validation afterwards.
func TestMonitorBracket(t *testing.T) {
	t.Parallel()
	mon := NewUpdateMonitor(nil)
	mon.Bind(htm.NewClock())
	s, ok := mon.Sample()
	if !ok {
		t.Fatal("idle monitor reported an in-flight update")
	}
	mon.beginNonTx()
	if _, ok := mon.Sample(); ok {
		t.Fatal("Sample succeeded while a bracketed update was in flight")
	}
	mon.endNonTx()
	if _, ok := mon.Sample(); !ok {
		t.Fatal("Sample failed after the bracketed update completed")
	}
	if mon.Validate(s) {
		t.Fatal("pre-bracket sample validated across the bracketed update")
	}
}

// TestLockedFastAndNilSCXHTM verifies what TLE's locked body and a nil
// SCXHTM mean. Under the TLE lock Fast runs with a nil tx, and a
// monitored update publishes that once — through the non-transactional
// bracket, not also through the version counter its prepared Fast body
// bumps inside a transaction. Under scx-htm a nil SCXHTM runs Fallback in
// both phases, retrying it until it succeeds.
func TestLockedFastAndNilSCXHTM(t *testing.T) {
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
		t.Fatalf("locked Fast: completed on %v with counter %d, want fallback and 1", p, c.Get(nil))
	}
	if mon.Validate(s) {
		t.Fatal("locked Fast: the locked update did not invalidate the sample")
	}
	if v := mon.txver.Get(nil); v != 0 {
		t.Fatalf("locked Fast: version counter = %d after an update inside the non-tx bracket, want 0", v)
	}

	_, th, _ = newEngineThread(t, htm.Config{}, Config{Algorithm: AlgSCXHTM})
	calls := 0
	const want = attemptBudget + 2
	p = th.Run(Op{Fallback: func() bool { calls++; return calls == want }})
	if p != htm.PathFallback || calls != want {
		t.Fatalf("nil SCXHTM: completed on %v after %d Fallback calls, want fallback after %d (%d budgeted + 2)",
			p, calls, want, attemptBudget)
	}
}
