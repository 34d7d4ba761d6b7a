package engine

import (
	"fmt"
	"testing"
	"unsafe"

	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

// bodyCalls counts the invocations of one Op's bodies: Fast inside a
// transaction, Fast with a nil tx (TLE's locked body), Middle, Fallback
// and SCXHTM.
type bodyCalls struct {
	fast, locked, middle, fallback, scxhtm int
}

// pathCond is a condition that separates an algorithm's paths.
type pathCond uint8

const (
	idle     pathCond = iota
	capacity          // every transactional access aborts for capacity
	held              // the fallback-presence indicator is held
)

func (c pathCond) String() string {
	return [...]string{"idle", "capacity", "held"}[c]
}

// countingOp builds an Op whose bodies count their invocations in calls.
// Every transactional body reads c inside its transaction, so a capacity
// rule on every access aborts it there; SCXHTM is one transaction of its
// own, like the standalone HTM SCX. Fallback asks for one retry before
// it completes, so an operation that runs it shows two calls: the
// software loop runs it until it succeeds. An update has a Middle and an
// SCXHTM body; a read-only operation has neither.
func countingOp(th *Thread, c *htm.Word, update bool, calls *bodyCalls) Op {
	op := Op{
		Fast: func(tx *htm.Tx) {
			if tx == nil {
				calls.locked++
			} else {
				calls.fast++
			}
			c.Get(tx)
		},
		Fallback: func() bool {
			calls.fallback++
			return calls.fallback%2 == 0
		},
		Update: update,
	}
	if update {
		op.Middle = func(tx *htm.Tx) {
			calls.middle++
			c.Get(tx)
		}
		op.SCXHTM = func() bool {
			calls.scxhtm++
			ok, _ := th.H.Atomic(htm.PathFast, func(tx *htm.Tx) { c.Get(tx) })
			return ok
		}
	}
	return op
}

// TestPathTable is the paper's path structure per algorithm (Sections
// 4–5), counted in operations: for each algorithm, an update (which has
// a Middle body) and a read-only operation (which has none), and each
// condition that separates the paths — none; a capacity abort on every
// transactional access; the fallback-presence indicator held, for the
// algorithms that do not wait for it to empty (2-path-ncon waits:
// TestReadOnlyOpRunsBesideFallback) — one operation runs, and the row
// names exactly which bodies it invoked and the path OpStats counts its
// completion on.
//
// Under a capacity rule the subscribed first paths (TLE's lock word, F
// for 2-path-ncon and a 3-path update) abort on the subscription, before
// their body is invoked; 3-path's read-only transactions run unsubscribed
// and 2-path-con's first path subscribes to nothing, so theirs is.
func TestPathTable(t *testing.T) {
	t.Parallel()
	const (
		b                      = attemptBudget
		fast, middle, fallback = htm.PathFast, htm.PathMiddle, htm.PathFallback
	)
	rows := []struct {
		alg    Algorithm
		update bool
		cond   pathCond
		want   bodyCalls
		path   htm.PathKind
	}{
		// non-htm: the software path only.
		{AlgNonHTM, true, idle, bodyCalls{fallback: 2}, fallback},
		{AlgNonHTM, true, capacity, bodyCalls{fallback: 2}, fallback},
		{AlgNonHTM, true, held, bodyCalls{fallback: 2}, fallback},
		{AlgNonHTM, false, idle, bodyCalls{fallback: 2}, fallback},
		{AlgNonHTM, false, capacity, bodyCalls{fallback: 2}, fallback},
		{AlgNonHTM, false, held, bodyCalls{fallback: 2}, fallback},

		// TLE: Fast in a transaction, else Fast under the lock.
		{AlgTLE, true, idle, bodyCalls{fast: 1}, fast},
		{AlgTLE, true, capacity, bodyCalls{locked: 1}, fallback},
		{AlgTLE, true, held, bodyCalls{fast: 1}, fast},
		{AlgTLE, false, idle, bodyCalls{fast: 1}, fast},
		{AlgTLE, false, capacity, bodyCalls{locked: 1}, fallback},
		{AlgTLE, false, held, bodyCalls{fast: 1}, fast},

		// 2-path-con: the instrumented body first, beside the fallback.
		{AlgTwoPathConc, true, idle, bodyCalls{middle: 1}, fast},
		{AlgTwoPathConc, true, capacity, bodyCalls{middle: 1, fallback: 2}, fallback},
		{AlgTwoPathConc, true, held, bodyCalls{middle: 1}, fast},
		{AlgTwoPathConc, false, idle, bodyCalls{fast: 1}, fast},
		{AlgTwoPathConc, false, capacity, bodyCalls{fast: 1, fallback: 2}, fallback},
		{AlgTwoPathConc, false, held, bodyCalls{fast: 1}, fast},

		// 2-path-ncon: the sequential body, kept off the fallback by F.
		{AlgTwoPathNCon, true, idle, bodyCalls{fast: 1}, fast},
		{AlgTwoPathNCon, true, capacity, bodyCalls{fallback: 2}, fallback},
		{AlgTwoPathNCon, false, idle, bodyCalls{fast: 1}, fast},
		{AlgTwoPathNCon, false, capacity, bodyCalls{fallback: 2}, fallback},

		// 3-path: fast, then middle, then fallback; a read-only operation
		// has one transactional path, unsubscribed.
		{AlgThreePath, true, idle, bodyCalls{fast: 1}, fast},
		{AlgThreePath, true, capacity, bodyCalls{middle: 1, fallback: 2}, fallback},
		{AlgThreePath, true, held, bodyCalls{middle: 1}, middle},
		{AlgThreePath, false, idle, bodyCalls{fast: 1}, fast},
		{AlgThreePath, false, capacity, bodyCalls{fast: 1, fallback: 2}, fallback},
		{AlgThreePath, false, held, bodyCalls{fast: 1}, fast},

		// scx-htm: the budgeted HTM-SCX attempts, then Fallback; without
		// an SCXHTM body, Fallback in both phases.
		{AlgSCXHTM, true, idle, bodyCalls{scxhtm: 1}, fast},
		{AlgSCXHTM, true, capacity, bodyCalls{scxhtm: b, fallback: 2}, fallback},
		{AlgSCXHTM, true, held, bodyCalls{scxhtm: 1}, fast},
		{AlgSCXHTM, false, idle, bodyCalls{fallback: 2}, fast},
		{AlgSCXHTM, false, capacity, bodyCalls{fallback: 2}, fast},
		{AlgSCXHTM, false, held, bodyCalls{fallback: 2}, fast},
	}
	for _, r := range rows {
		r := r
		kind := "read"
		if r.update {
			kind = "update"
		}
		t.Run(fmt.Sprintf("%v/%s/%v", r.alg, kind, r.cond), func(t *testing.T) {
			t.Parallel()
			var hcfg htm.Config
			if r.cond == capacity {
				hcfg.Faults = fault.New(1, fault.Rule{Point: fault.PointTxAccess, Every: 1,
					Cause: uint8(htm.CauseCapacity)})
			}
			ind := &counterIndicator{}
			e, th, clk := newEngineThread(t, hcfg, Config{Algorithm: r.alg, Indicator: ind})
			if r.cond == held {
				ind.Arrive()
			}
			var c htm.Word
			c.Bind(clk)
			var calls bodyCalls
			if p := th.Run(countingOp(th, &c, r.update, &calls)); p != r.path {
				t.Errorf("Run returned %v, want %v", p, r.path)
			}
			if calls != r.want {
				t.Errorf("bodies invoked %+v, want %+v", calls, r.want)
			}
			var want PathCounts
			switch r.path {
			case fast:
				want.Fast = 1
			case middle:
				want.Middle = 1
			case fallback:
				want.Fallback = 1
			}
			if got := e.Stats().PathCounts; got != want {
				t.Errorf("OpStats completions %+v, want %+v", got, want)
			}
		})
	}
}

// TestLockedFastAndNilSCXHTM verifies what TLE's locked body and a nil
// SCXHTM mean. Under the TLE lock Fast runs with a nil tx, once, after
// the elided attempts. Under scx-htm a nil SCXHTM runs Fallback in both
// phases, retrying it until it succeeds.
func TestLockedFastAndNilSCXHTM(t *testing.T) {
	t.Parallel()
	_, th, clk := newEngineThread(t, htm.Config{}, Config{Algorithm: AlgTLE})
	var c htm.Word
	c.Bind(clk)
	locked := 0
	p := th.Run(Op{Update: true, Fast: func(tx *htm.Tx) {
		if tx != nil {
			tx.Abort(CodeRetry) // drive the operation to the lock
		}
		locked++
		c.Set(tx, c.Get(tx)+1)
	}})
	if p != htm.PathFallback || c.Get(nil) != 1 || locked != 1 {
		t.Fatalf("locked Fast: completed on %v with counter %d after %d locked calls, want fallback, 1 and 1",
			p, c.Get(nil), locked)
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

// TestOpIsOneCacheLine: every operation passes its Op by value, so it
// must fit in one 64-byte line.
func TestOpIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got > 64 {
		t.Fatalf("engine.Op is %d bytes, want at most 64", got)
	}
}
