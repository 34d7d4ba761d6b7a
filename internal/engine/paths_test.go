package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"htmtree/internal/dict"
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
	guarded           // the guard a waiting first path subscribes to is held: the TLE lock for TLE, F otherwise
)

func (c pathCond) String() string {
	return [...]string{"idle", "capacity", "held", "guarded"}[c]
}

// pinned is a read-only row's RunAt column: the bodies the single pinned
// attempt invokes under the row's condition and the status it reports.
type pinned struct {
	calls bodyCalls
	st    dict.PinStatus
}

// unpinnable is the RunAt column of an algorithm whose first path is not
// one transaction: CanPin is false.
var unpinnable = &pinned{}

func pin(st dict.PinStatus, calls bodyCalls) *pinned { return &pinned{calls, st} }

func (p pinned) String() string {
	return fmt.Sprintf("%s, bodies %+v", [...]string{"committed", "aborted", "unfit"}[p.st], p.calls)
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
// algorithms that do not wait for it to empty; and, for TLE and
// 2-path-ncon, which do wait, their guard held — one operation runs, and
// the row names exactly which bodies it invoked and the path OpStats
// counts its completion on. A guarded row's operation must begin no
// attempt and not complete until the guard is released, and then
// completes on the fast path.
//
// Under a capacity rule the subscribed first paths (TLE's lock word, F
// for 2-path-ncon and a 3-path update) abort on the subscription, before
// their body is invoked; 3-path's read-only transactions run unsubscribed
// and 2-path-con's first path subscribes to nothing, so theirs is.
//
// A read-only row's last column is RunAt's: under the same condition,
// before Run, one pinned attempt of the operation (with a site of its
// own, so that neither call's capacity memory steers the other) invokes
// the first path's body once and commits, counting one fast-path
// completion; is unfit under a capacity rule; and aborts on a held
// subscription without invoking the body. An attempt that does not
// commit counts no completion. Where the first path is not one
// transaction, CanPin is false.
func TestPathTable(t *testing.T) {
	t.Parallel()
	const (
		b                         = attemptBudget
		fast, middle, fallback    = htm.PathFast, htm.PathMiddle, htm.PathFallback
		committed, aborted, unfit = dict.PinCommitted, dict.PinAborted, dict.PinUnfit
	)
	rows := []struct {
		alg    Algorithm
		update bool
		cond   pathCond
		want   bodyCalls
		path   htm.PathKind
		pin    *pinned // read-only rows
	}{
		// non-htm: the software path only.
		{AlgNonHTM, true, idle, bodyCalls{fallback: 2}, fallback, nil},
		{AlgNonHTM, true, capacity, bodyCalls{fallback: 2}, fallback, nil},
		{AlgNonHTM, true, held, bodyCalls{fallback: 2}, fallback, nil},
		{AlgNonHTM, false, idle, bodyCalls{fallback: 2}, fallback, unpinnable},
		{AlgNonHTM, false, capacity, bodyCalls{fallback: 2}, fallback, unpinnable},
		{AlgNonHTM, false, held, bodyCalls{fallback: 2}, fallback, unpinnable},

		// TLE: Fast in a transaction, else Fast under the lock.
		{AlgTLE, true, idle, bodyCalls{fast: 1}, fast, nil},
		{AlgTLE, true, capacity, bodyCalls{locked: 1}, fallback, nil},
		{AlgTLE, true, held, bodyCalls{fast: 1}, fast, nil},
		{AlgTLE, true, guarded, bodyCalls{fast: 1}, fast, nil},
		{AlgTLE, false, idle, bodyCalls{fast: 1}, fast, pin(committed, bodyCalls{fast: 1})},
		{AlgTLE, false, capacity, bodyCalls{locked: 1}, fallback, pin(unfit, bodyCalls{})},
		{AlgTLE, false, held, bodyCalls{fast: 1}, fast, pin(committed, bodyCalls{fast: 1})},
		{AlgTLE, false, guarded, bodyCalls{fast: 1}, fast, pin(aborted, bodyCalls{})},

		// 2-path-con: the instrumented body first, beside the fallback.
		{AlgTwoPathConc, true, idle, bodyCalls{middle: 1}, fast, nil},
		{AlgTwoPathConc, true, capacity, bodyCalls{middle: 1, fallback: 2}, fallback, nil},
		{AlgTwoPathConc, true, held, bodyCalls{middle: 1}, fast, nil},
		{AlgTwoPathConc, false, idle, bodyCalls{fast: 1}, fast, pin(committed, bodyCalls{fast: 1})},
		{AlgTwoPathConc, false, capacity, bodyCalls{fast: 1, fallback: 2}, fallback, pin(unfit, bodyCalls{fast: 1})},
		{AlgTwoPathConc, false, held, bodyCalls{fast: 1}, fast, pin(committed, bodyCalls{fast: 1})},

		// 2-path-ncon: the sequential body, kept off the fallback by F.
		{AlgTwoPathNCon, true, idle, bodyCalls{fast: 1}, fast, nil},
		{AlgTwoPathNCon, true, capacity, bodyCalls{fallback: 2}, fallback, nil},
		{AlgTwoPathNCon, true, guarded, bodyCalls{fast: 1}, fast, nil},
		{AlgTwoPathNCon, false, idle, bodyCalls{fast: 1}, fast, pin(committed, bodyCalls{fast: 1})},
		{AlgTwoPathNCon, false, capacity, bodyCalls{fallback: 2}, fallback, pin(unfit, bodyCalls{})},
		{AlgTwoPathNCon, false, guarded, bodyCalls{fast: 1}, fast, pin(aborted, bodyCalls{})},

		// 3-path: fast, then middle, then fallback; a read-only operation
		// has one transactional path, unsubscribed.
		{AlgThreePath, true, idle, bodyCalls{fast: 1}, fast, nil},
		{AlgThreePath, true, capacity, bodyCalls{middle: 1, fallback: 2}, fallback, nil},
		{AlgThreePath, true, held, bodyCalls{middle: 1}, middle, nil},
		{AlgThreePath, false, idle, bodyCalls{fast: 1}, fast, pin(committed, bodyCalls{fast: 1})},
		{AlgThreePath, false, capacity, bodyCalls{fast: 1, fallback: 2}, fallback, pin(unfit, bodyCalls{fast: 1})},
		{AlgThreePath, false, held, bodyCalls{fast: 1}, fast, pin(committed, bodyCalls{fast: 1})},

		// scx-htm: the budgeted HTM-SCX attempts, then Fallback; without
		// an SCXHTM body, Fallback in both phases.
		{AlgSCXHTM, true, idle, bodyCalls{scxhtm: 1}, fast, nil},
		{AlgSCXHTM, true, capacity, bodyCalls{scxhtm: b, fallback: 2}, fallback, nil},
		{AlgSCXHTM, true, held, bodyCalls{scxhtm: 1}, fast, nil},
		{AlgSCXHTM, false, idle, bodyCalls{fallback: 2}, fast, unpinnable},
		{AlgSCXHTM, false, capacity, bodyCalls{fallback: 2}, fast, unpinnable},
		{AlgSCXHTM, false, held, bodyCalls{fallback: 2}, fast, unpinnable},
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
			e, th := newEngineThread(t, hcfg, Config{Algorithm: r.alg, Indicator: ind})
			// A guarded row holds only its own algorithm's guard, so that
			// it fails if the first path waits on the other one.
			lock := r.cond == guarded && r.alg == AlgTLE
			if r.cond == held || r.cond == guarded && !lock {
				ind.Arrive()
			}
			if lock {
				e.tle.Set(nil, 1)
			}
			var c htm.Word
			if r.pin != nil {
				if got, want := th.CanPin(), r.pin != unpinnable; got != want {
					t.Errorf("CanPin = %v, want %v", got, want)
				}
				if th.CanPin() {
					var calls bodyCalls
					op := countingOp(th, &c, false, &calls)
					op.Site = NewSite()
					want := e.Stats().PathCounts
					st := th.RunAt(&op, htm.Pin())
					if got := (pinned{calls, st}); got != *r.pin {
						t.Errorf("RunAt: %v; want %v", got, *r.pin)
					}
					if st == dict.PinCommitted {
						want.Fast++
					}
					if got := e.Stats().PathCounts; got != want {
						t.Errorf("RunAt: OpStats completions %+v, want %+v", got, want)
					}
				}
			}
			before := e.Stats().PathCounts
			var calls bodyCalls
			op := countingOp(th, &c, r.update, &calls)
			hs := th.H.Stats()
			done := make(chan htm.PathKind, 1)
			go func() { done <- th.Run(op) }()
			if r.cond == guarded {
				for i := 0; i < 100; i++ {
					runtime.Gosched()
				}
				select {
				case p := <-done:
					t.Fatalf("Run completed on %v while its guard was held", p)
				default:
				}
				if now := th.H.Stats(); now.TotalAborts(fast) != hs.TotalAborts(fast) {
					t.Fatal("a first-path attempt aborted while the guard was held: Run did not wait")
				}
				if lock {
					e.tle.Set(nil, 0)
				} else {
					ind.Depart()
				}
			}
			var p htm.PathKind
			select {
			case p = <-done:
			case <-time.After(time.Minute):
				t.Fatal("Run did not complete in a minute: does it wait on a guard it does not subscribe to?")
			}
			if p != r.path {
				t.Errorf("Run returned %v, want %v", p, r.path)
			}
			if calls != r.want {
				t.Errorf("bodies invoked %+v, want %+v", calls, r.want)
			}
			want := before
			switch r.path {
			case fast:
				want.Fast++
			case middle:
				want.Middle++
			case fallback:
				want.Fallback++
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
	_, th := newEngineThread(t, htm.Config{}, Config{Algorithm: AlgTLE})
	var c htm.Word
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

	_, th = newEngineThread(t, htm.Config{}, Config{Algorithm: AlgSCXHTM})
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
