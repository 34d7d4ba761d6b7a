package engine

import (
	"testing"
	"time"

	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

// sampledOp is countingOp's update with every body sampling mon from
// inside before it does anything else, counting in unpublished the
// invocations that found no update in flight.
func sampledOp(th *Thread, mon *UpdateMonitor, c *htm.Word, calls, unpublished *bodyCalls) Op {
	op := countingOp(th, c, true, calls)
	sample := func(n *int) {
		if _, ok := mon.Sample(); ok {
			*n++
		}
	}
	fast, middle, fallback, scxhtm := op.Fast, op.Middle, op.Fallback, op.SCXHTM
	op.Fast = func(tx *htm.Tx) {
		if tx == nil {
			sample(&unpublished.locked)
		} else {
			sample(&unpublished.fast)
		}
		fast(tx)
	}
	op.Middle = func(tx *htm.Tx) { sample(&unpublished.middle); middle(tx) }
	op.Fallback = func() bool { sample(&unpublished.fallback); return fallback() }
	op.SCXHTM = func() bool { sample(&unpublished.scxhtm); return scxhtm() }
	return op
}

// TestMonitorPublishesUpdateCommits verifies, for every algorithm, that
// an update is in flight for the monitor on every path the algorithm
// runs it on — each body it invokes, under each of TestPathTable's
// conditions, samples the monitor from inside and must find it busy —
// that the completed update invalidates a sample taken before it, that
// a non-update operation does not, and that a quiescent monitor
// validates. The conditions together must reach every body the
// algorithm has for an update (runs).
func TestMonitorPublishesUpdateCommits(t *testing.T) {
	t.Parallel()
	runs := map[Algorithm]bodyCalls{
		AlgNonHTM:      {fallback: 1},
		AlgTLE:         {fast: 1, locked: 1},
		AlgTwoPathConc: {middle: 1, fallback: 1},
		AlgTwoPathNCon: {fast: 1, fallback: 1},
		AlgThreePath:   {fast: 1, middle: 1, fallback: 1},
		AlgSCXHTM:      {scxhtm: 1, fallback: 1},
	}
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			var ran bodyCalls
			for _, cond := range []pathCond{idle, capacity, held} {
				if cond == held && alg == AlgTwoPathNCon {
					continue // its fast path waits for F to empty
				}
				var hcfg htm.Config
				if cond == capacity {
					hcfg.Faults = fault.New(1, fault.Rule{Point: fault.PointTxAccess, Every: 1,
						Cause: uint8(htm.CauseCapacity)})
				}
				mon, ind := NewUpdateMonitor(nil), &counterIndicator{}
				_, th, clk := newEngineThread(t, hcfg, Config{Algorithm: alg, Indicator: ind, Monitor: mon})
				if cond == held {
					ind.Arrive()
				}
				var c htm.Word
				c.Bind(clk)

				s, ok := mon.Sample()
				if !ok {
					t.Fatalf("%v: idle monitor reported an in-flight update", cond)
				}
				if !mon.Validate(s) {
					t.Fatalf("%v: idle monitor failed validation", cond)
				}
				var calls, unpublished bodyCalls
				th.Run(sampledOp(th, mon, &c, &calls, &unpublished))
				if unpublished != (bodyCalls{}) {
					t.Errorf("%v: bodies %+v of %+v found no update in flight", cond, unpublished, calls)
				}
				if mon.Validate(s) {
					t.Errorf("%v: update did not invalidate the sample", cond)
				}
				ran.fast = max(ran.fast, min(calls.fast, 1))
				ran.locked = max(ran.locked, min(calls.locked, 1))
				ran.middle = max(ran.middle, min(calls.middle, 1))
				ran.fallback = max(ran.fallback, min(calls.fallback, 1))
				ran.scxhtm = max(ran.scxhtm, min(calls.scxhtm, 1))

				s2, ok := mon.Sample()
				if !ok {
					t.Fatalf("%v: monitor busy after the update completed", cond)
				}
				th.Run(countingOp(th, &c, false, &bodyCalls{})) // not an update: must stay invisible
				if !mon.Validate(s2) {
					t.Errorf("%v: non-update operation invalidated the sample", cond)
				}
			}
			if ran != runs[alg] {
				t.Errorf("bodies reached %+v, want %+v", ran, runs[alg])
			}
		})
	}
}

// TestMonitorQuiesceWaitsOutBracketedUpdate verifies the gate's two
// halves: Quiesce does not return while an update is in flight, and while the gate is held an update's admission (Enter)
// waits until release.
func TestMonitorQuiesceWaitsOutBracketedUpdate(t *testing.T) {
	t.Parallel()
	mon := NewUpdateMonitor(nil)
	mon.Bind(htm.NewClock())
	mon.begin() // an update, mid-flight

	quiesced := make(chan func())
	go func() { quiesced <- mon.Quiesce() }()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while a bracketed update was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	mon.end()
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

// TestMonitorBracket verifies the bracket: samples fail while an update
// is between begin and end, and a sample taken before it fails
// validation afterwards.
func TestMonitorBracket(t *testing.T) {
	t.Parallel()
	mon := NewUpdateMonitor(nil)
	mon.Bind(htm.NewClock())
	s, ok := mon.Sample()
	if !ok {
		t.Fatal("idle monitor reported an in-flight update")
	}
	mon.begin()
	if _, ok := mon.Sample(); ok {
		t.Fatal("Sample succeeded while a bracketed update was in flight")
	}
	mon.end()
	if _, ok := mon.Sample(); !ok {
		t.Fatal("Sample failed after the bracketed update completed")
	}
	if mon.Validate(s) {
		t.Fatal("pre-bracket sample validated across the bracketed update")
	}
}

// TestLockedFastAndNilSCXHTM verifies what TLE's locked body and a nil
// SCXHTM mean. Under the TLE lock Fast runs with a nil tx, and a
// monitored update publishes that once: Run's one bracket spans its
// elided attempts and the locked body. Under scx-htm a nil SCXHTM runs
// Fallback in both phases, retrying it until it succeeds.
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
	if in := mon.nin.Load(); in != s.in+1 {
		t.Fatalf("locked Fast: ingress moved from %d to %d, want by exactly one", s.in, in)
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
