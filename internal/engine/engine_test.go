package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"htmtree/internal/dict"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/obs"
)

// counterOp builds an Op whose every body increments the shared cell c,
// the minimal "data structure" for exercising path policies.
func counterOp(c *htm.Word) Op {
	return Op{
		Fast:   func(tx *htm.Tx) { c.Set(tx, c.Get(tx)+1) },
		Middle: func(tx *htm.Tx) { c.Set(tx, c.Get(tx)+1) },
		Fallback: func() bool {
			v := c.Get(nil)
			return c.CAS(nil, v, v+1)
		},
		SCXHTM: func() bool {
			v := c.Get(nil)
			return c.CAS(nil, v, v+1)
		},
	}
}

// abortEveryAccess is a TM configuration whose every transactional
// access aborts spuriously.
func abortEveryAccess() htm.Config {
	return htm.Config{Faults: fault.New(1, fault.Rule{Point: fault.PointTxAccess, Every: 1})}
}

func newEngineThread(t *testing.T, htmCfg htm.Config, engCfg Config) (*Engine, *Thread, *htm.Clock) {
	t.Helper()
	tm := htm.New(htmCfg)
	e := New(engCfg, tm.Clock())
	return e, e.NewThread(tm.NewThread()), tm.Clock()
}

func TestAlgorithmsCompleteConcurrently(t *testing.T) {
	t.Parallel()
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tm := htm.New(htm.Config{})
			e := New(Config{Algorithm: alg}, tm.Clock())
			var c htm.Word
			c.Bind(tm.Clock())
			const goroutines = 4
			const perG = 2500
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := e.NewThread(tm.NewThread())
					op := counterOp(&c)
					for i := 0; i < perG; i++ {
						th.Run(op)
					}
				}()
			}
			wg.Wait()
			if got := c.Get(nil); got != goroutines*perG {
				t.Fatalf("counter = %d, want %d", got, goroutines*perG)
			}
			if total := e.Stats().Total(); total != goroutines*perG {
				t.Fatalf("op stats total = %d, want %d", total, goroutines*perG)
			}
		})
	}
}

func TestFastPathPreferred(t *testing.T) {
	t.Parallel()
	for _, alg := range []Algorithm{AlgTLE, AlgTwoPathConc, AlgTwoPathNCon, AlgThreePath, AlgSCXHTM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			_, th, clk := newEngineThread(t, htm.Config{}, Config{Algorithm: alg})
			var c htm.Word
			c.Bind(clk)
			if p := th.Run(counterOp(&c)); p != htm.PathFast {
				t.Fatalf("uncontended op completed on %v, want fast", p)
			}
		})
	}
}

func TestAllAbortsForceFallback(t *testing.T) {
	t.Parallel()
	// An abort injected at every transactional access, so every
	// algorithm with a software path must complete there.
	for _, alg := range []Algorithm{AlgTLE, AlgTwoPathConc, AlgTwoPathNCon, AlgThreePath} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			_, th, clk := newEngineThread(t, abortEveryAccess(), Config{Algorithm: alg})
			var c htm.Word
			c.Bind(clk)
			if p := th.Run(counterOp(&c)); p != htm.PathFallback {
				t.Fatalf("completed on %v, want fallback", p)
			}
			if got := c.Get(nil); got != 1 {
				t.Fatalf("counter = %d, want 1", got)
			}
		})
	}
}

// risingIndicator is a fetch-and-increment indicator on which, once
// armed, an operation arrives right after the next look at it from
// outside a transaction: a fallback-path operation starting between a
// fast-path attempt's look at F and its subscription to it.
type risingIndicator struct {
	counterIndicator
	armed bool
}

func (r *risingIndicator) Nonzero(tx *htm.Tx) bool {
	busy := r.counterIndicator.Nonzero(tx)
	if tx == nil && r.armed {
		r.armed = false
		r.Arrive()
	}
	return busy
}

// TestThreePathMovesToMiddleWhenFallbackBusy: a 3-path update moves to
// the middle path instead of waiting for the fallback path to empty, and
// pays an abort for it only when F rose while the attempt was running.
func TestThreePathMovesToMiddleWhenFallbackBusy(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name       string
		risesLater bool
		wantAborts uint64
	}{
		// F non-zero before the operation: it is read before any
		// transaction begins, so no fast-path attempt is made at all.
		{"busy before the operation", false, 0},
		// F rises after the look and before the subscription inside the
		// attempt: that one attempt aborts on the subscription.
		{"rises during the attempt", true, 1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ind := &risingIndicator{armed: tc.risesLater}
			o := obs.New(obs.Config{EventSample: 1})
			tm := htm.New(htm.Config{})
			e := New(Config{Algorithm: AlgThreePath, Indicator: ind, Obs: o.Node()}, tm.Clock())
			th := e.NewThread(tm.NewThread())
			var c htm.Word
			c.Bind(tm.Clock())
			if !tc.risesLater {
				ind.Arrive() // simulate an operation on the fallback path
			}

			if p := th.Run(counterOp(&c)); p != htm.PathMiddle {
				t.Fatalf("completed on %v, want middle while fallback busy", p)
			}
			hs := th.H.Stats()
			if got := hs.Commits[htm.PathFast] + hs.TotalAborts(htm.PathFast); got != tc.wantAborts {
				t.Fatalf("%d fast-path transactions, want %d", got, tc.wantAborts)
			}
			if got := hs.Aborts[htm.PathFast][htm.CauseExplicit]; got != tc.wantAborts {
				t.Fatalf("fast explicit aborts = %d, want %d", got, tc.wantAborts)
			}
			for _, ev := range o.Events() {
				if ev.Kind == obs.EvAbort && ev.B != uint64(CodeFallbackBusy) {
					t.Fatalf("abort with code %d, want CodeFallbackBusy", ev.B)
				}
			}
			if hs.Commits[htm.PathMiddle] != 1 || hs.TotalAborts(htm.PathMiddle) != 0 {
				t.Fatalf("middle path: %d commits, %d aborts, want 1 and 0",
					hs.Commits[htm.PathMiddle], hs.TotalAborts(htm.PathMiddle))
			}
		})
	}
}

// pollCountingIndicator counts the looks taken at it from outside a
// transaction while it is non-zero: the polls of an operation waiting for
// the fallback path to empty.
type pollCountingIndicator struct {
	counterIndicator
	busyPolls atomic.Int64
}

func (p *pollCountingIndicator) Nonzero(tx *htm.Tx) bool {
	busy := p.counterIndicator.Nonzero(tx)
	if tx == nil && busy {
		p.busyPolls.Add(1)
	}
	return busy
}

// TestReadOnlyOpRunsBesideFallback: an operation with one transactional
// body (no Middle) is, under 3-path, not kept off a busy fallback path —
// it commits on its first path without an abort, as its body always
// could on the middle path — while 2-path-ncon, the paper's baseline,
// still makes it wait for the fallback path to empty.
func TestReadOnlyOpRunsBesideFallback(t *testing.T) {
	t.Parallel()
	newReader := func(alg Algorithm, ind Indicator) (*Thread, Op) {
		tm := htm.New(htm.Config{})
		e := New(Config{Algorithm: alg, Indicator: ind}, tm.Clock())
		return e.NewThread(tm.NewThread()), readOp(make([]htm.Word, 4), new(uint64))
	}
	t.Run("3-path", func(t *testing.T) {
		t.Parallel()
		ind := &counterIndicator{}
		th, op := newReader(AlgThreePath, ind)
		ind.Arrive()
		if p := th.Run(op); p != htm.PathFast {
			t.Fatalf("completed on %v, want its one transactional path", p)
		}
		hs := th.H.Stats()
		if hs.Commits[htm.PathFast] != 1 || hs.TotalAborts(htm.PathFast) != 0 {
			t.Fatalf("%d commits, %d aborts, want 1 and 0 (no subscription to abort on)",
				hs.Commits[htm.PathFast], hs.TotalAborts(htm.PathFast))
		}
	})
	t.Run("2-path-ncon", func(t *testing.T) {
		t.Parallel()
		ind := &pollCountingIndicator{}
		th, op := newReader(AlgTwoPathNCon, ind)
		ind.Arrive()
		done := make(chan htm.PathKind)
		go func() { done <- th.Run(op) }()
		for ind.busyPolls.Load() < 100 {
			runtime.Gosched()
		}
		select {
		case p := <-done:
			t.Fatalf("completed on %v while the fallback path was busy", p)
		default:
		}
		ind.Depart()
		if p := <-done; p != htm.PathFast {
			t.Fatalf("completed on %v, want fast once the fallback path emptied", p)
		}
		if hs := th.H.Stats(); hs.TotalAborts(htm.PathFast) != 0 {
			t.Fatalf("%d aborts: the wait is before the attempt, not inside it", hs.TotalAborts(htm.PathFast))
		}
	})
}

func TestThreePathCapacitySkipsRetries(t *testing.T) {
	t.Parallel()
	// A fast body that always overflows the read capacity must move to
	// the middle path after a single attempt, and then (still
	// overflowing) to the fallback path after a single middle attempt.
	tm := htm.New(htm.Config{ReadCapacity: 4})
	e := New(Config{Algorithm: AlgThreePath}, tm.Clock())
	th := e.NewThread(tm.NewThread())
	cells := make([]htm.Word, 16)
	readAll := func(tx *htm.Tx) {
		for i := range cells {
			_ = cells[i].Get(tx)
		}
	}
	done := false
	p := th.Run(Op{
		Fast:     readAll,
		Middle:   readAll,
		Fallback: func() bool { done = true; return true },
	})
	if p != htm.PathFallback || !done {
		t.Fatalf("completed on %v (done=%v), want fallback", p, done)
	}
	hs := th.H.Stats()
	if got := hs.Aborts[htm.PathFast][htm.CauseCapacity]; got != 1 {
		t.Fatalf("fast capacity aborts = %d, want 1", got)
	}
	if got := hs.Aborts[htm.PathMiddle][htm.CauseCapacity]; got != 1 {
		t.Fatalf("middle capacity aborts = %d, want 1", got)
	}
}

func TestTLEMutualExclusion(t *testing.T) {
	t.Parallel()
	// While a TLE operation holds the global lock, fast-path
	// transactions must not commit. The locked body (Fast with a nil tx)
	// flips a plain (non transactional, deliberately
	// unsynchronized-looking but cell-backed) flag; fast bodies assert
	// they never observe it set. One goroutine's transactions always
	// abort explicitly, so all its operations run under the lock (per-TM
	// clocks require one engine to serve one TM, so the old per-thread
	// spurious-abort trick is out).
	tm := htm.New(htm.Config{})
	e := New(Config{Algorithm: AlgTLE}, tm.Clock())
	var inLocked htm.Word
	var c htm.Word
	inLocked.Bind(tm.Clock())
	c.Bind(tm.Clock())

	var wg sync.WaitGroup
	violated := make(chan struct{}, 1)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(forceLock bool) {
			defer wg.Done()
			th := e.NewThread(tm.NewThread())
			op := Op{
				Fast: func(tx *htm.Tx) {
					if tx == nil {
						inLocked.Set(nil, 1)
						c.Set(nil, c.Get(nil)+1)
						inLocked.Set(nil, 0)
						return
					}
					if forceLock {
						tx.Abort(CodeRetry) // drive this thread to the lock
					}
					if inLocked.Get(tx) != 0 {
						select {
						case violated <- struct{}{}:
						default:
						}
					}
					c.Set(tx, c.Get(tx)+1)
				},
			}
			for i := 0; i < 2000; i++ {
				th.Run(op)
			}
		}(g == 0)
	}
	wg.Wait()
	select {
	case <-violated:
		t.Fatal("fast-path transaction committed while the TLE lock was held")
	default:
	}
	if got := c.Get(nil); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
}

func TestParseAlgorithm(t *testing.T) {
	t.Parallel()
	for _, a := range Algorithms {
		got, ok := ParseAlgorithm(a.String())
		if !ok || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v,%v", a.String(), got, ok)
		}
	}
	if _, ok := ParseAlgorithm("nope"); ok {
		t.Fatal("ParseAlgorithm accepted an unknown name")
	}
}

// readOp builds a read-only Op — one transactional body, no Middle —
// that reads every cell into *sum.
func readOp(cells []htm.Word, sum *uint64) Op {
	read := func(tx *htm.Tx) {
		*sum = 0
		for i := range cells {
			*sum += cells[i].Get(tx)
		}
	}
	return Op{Site: NewSite(), Fast: read,
		Fallback: func() bool { read(nil); return true }}
}

// TestPinnedAttemptRunsTheFirstPath: a pinned attempt reads at its
// snapshot, not at the clock — one that reaches a cell written after rv
// aborts for conflict rather than extend its snapshot, and is accounted
// as a failed fast-path attempt that completed nothing. (What it invokes
// and reports under each condition is TestPathTable's RunAt column.)
func TestPinnedAttemptRunsTheFirstPath(t *testing.T) {
	t.Parallel()
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tm := htm.New(htm.Config{})
			e := New(Config{Algorithm: alg}, tm.Clock())
			th := e.NewThread(tm.NewThread())
			if !th.CanPin() {
				return
			}
			cells := make([]htm.Word, 4)
			for i := range cells {
				cells[i].Bind(tm.Clock())
				cells[i].Set(nil, 1)
			}
			var sum uint64
			op := readOp(cells, &sum)
			rv := tm.Clock().Now()
			cells[3].Set(nil, 2)
			if st := th.RunAt(&op, rv); st != dict.PinAborted {
				t.Fatalf("pinned read of a cell written after rv: status %v, want aborted", st)
			}
			s := e.Stats()
			if s.Total() != 0 || s.Aborts[htm.PathFast][htm.CauseConflict] != 1 {
				t.Fatalf("engine stats %+v, want no completion and 1 fast conflict abort", s)
			}
		})
	}
}

// TestPinnedAttemptAccounting: a pinned attempt that fails leaves what a
// failed attempt of Run's loops leaves — the TM's and the engine's abort
// counters by cause, an abort event in the flight recorder, and, for a
// capacity abort, the site's capacity memory, which then answers
// PinUnfit without starting a transaction.
func TestPinnedAttemptAccounting(t *testing.T) {
	t.Parallel()
	o := obs.New(obs.Config{EventSample: 1})
	tm := htm.New(htm.Config{ReadCapacity: 4})
	e := New(Config{Algorithm: AlgThreePath, Obs: o.Node()}, tm.Clock())
	th := e.NewThread(tm.NewThread())
	cells := make([]htm.Word, 8)
	var sum uint64
	op := readOp(cells, &sum)
	const tries = 32
	for i := 0; i < tries; i++ {
		if st := th.RunAt(&op, tm.Clock().Now()); st != dict.PinUnfit {
			t.Fatalf("attempt %d: status %v, want unfit", i, st)
		}
	}
	s := e.Stats()
	aborted := s.Aborts[htm.PathFast][htm.CauseCapacity]
	if aborted < capScoreSkip || aborted+s.Policy.Demotions != tries || s.Policy.Demotions == 0 {
		t.Fatalf("%d capacity aborts + %d demotions in %d tries: the site's capacity memory is not consulted", aborted, s.Policy.Demotions, tries)
	}
	if got := tm.Stats().Aborts[htm.PathFast][htm.CauseCapacity]; got != aborted {
		t.Fatalf("htm counts %d capacity aborts, the engine %d", got, aborted)
	}
	var events uint64
	for _, ev := range o.Events() {
		if ev.Kind == obs.EvAbort && ev.Cause == htm.CauseCapacity && ev.A == op.Site.id {
			events++
		}
	}
	if events != aborted {
		t.Fatalf("%d abort events for %d aborts", events, aborted)
	}
	if s.Total() != 0 {
		t.Fatalf("failed pinned attempts completed %d operations", s.Total())
	}
}

// TestThreadKeepsOffNeighbouringCacheLines: see the ebr test of the same
// name; the engine thread's per-operation counters need the same room,
// and so does the engine's configuration, which every operation reads.
func TestThreadKeepsOffNeighbouringCacheLines(t *testing.T) {
	var th Thread
	var e Engine
	for _, c := range []struct {
		name             string
		first, end, size uintptr
	}{
		{"Thread", unsafe.Offsetof(th.H), unsafe.Offsetof(th.pool) + unsafe.Sizeof(th.pool), unsafe.Sizeof(th)},
		{"Engine", unsafe.Offsetof(e.cfg), unsafe.Offsetof(e.threads) + unsafe.Sizeof(e.threads), unsafe.Sizeof(e)},
	} {
		if c.first < 64 || c.size-c.end < 64 {
			t.Fatalf("%s fields span bytes %d..%d of %d: want 64 bytes of padding at each end", c.name, c.first, c.end, c.size)
		}
	}
}
