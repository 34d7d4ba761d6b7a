package engine

import (
	"sync"
	"testing"

	"htmtree/internal/dict"
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
		Locked: func() { c.Set(nil, c.Get(nil)+1) },
		SCXHTM: func(useHTM bool) bool {
			v := c.Get(nil)
			return c.CAS(nil, v, v+1)
		},
	}
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

func TestNonHTMUsesOnlyFallback(t *testing.T) {
	t.Parallel()
	e, th, clk := newEngineThread(t, htm.Config{}, Config{Algorithm: AlgNonHTM})
	var c htm.Word
	c.Bind(clk)
	for i := 0; i < 10; i++ {
		if p := th.Run(counterOp(&c)); p != htm.PathFallback {
			t.Fatalf("completed on %v, want fallback", p)
		}
	}
	s := e.Stats()
	if s.Fast != 0 || s.Middle != 0 || s.Fallback != 10 {
		t.Fatalf("stats = %+v, want fallback only", s)
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
	// SpuriousEvery=1 makes every transactional access abort, so every
	// algorithm with a software path must complete there.
	for _, alg := range []Algorithm{AlgTLE, AlgTwoPathConc, AlgTwoPathNCon, AlgThreePath} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			_, th, clk := newEngineThread(t, htm.Config{SpuriousEvery: 1}, Config{Algorithm: alg})
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

func TestThreePathMovesToMiddleWhenFallbackBusy(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	e := New(Config{Algorithm: AlgThreePath}, tm.Clock())
	th := e.NewThread(tm.NewThread())
	var c htm.Word
	c.Bind(tm.Clock())

	depart := e.cfg.Indicator.Arrive() // simulate an operation on the fallback path
	defer depart()

	if p := th.Run(counterOp(&c)); p != htm.PathMiddle {
		t.Fatalf("completed on %v, want middle while fallback busy", p)
	}
	// The fast path must have been abandoned after exactly one attempt
	// (it saw F != 0 and moved, rather than waiting).
	hs := th.H.Stats()
	if got := hs.Aborts[htm.PathFast][htm.CauseExplicit]; got != 1 {
		t.Fatalf("fast explicit aborts = %d, want 1 (immediate move to middle)", got)
	}
	if hs.Commits[htm.PathMiddle] != 1 {
		t.Fatalf("middle commits = %d, want 1", hs.Commits[htm.PathMiddle])
	}
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
	// transactions must not commit. The locked body flips a plain (non
	// transactional, deliberately unsynchronized-looking but
	// cell-backed) flag; fast bodies assert they never observe it set.
	// One goroutine's fast body always aborts explicitly, so all its
	// operations run under the lock (per-TM clocks require one engine to
	// serve one TM, so the old per-thread spurious-abort trick is out).
	tm := htm.New(htm.Config{})
	e := New(Config{Algorithm: AlgTLE, AttemptLimit: 2}, tm.Clock())
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
				Locked: func() {
					inLocked.Set(nil, 1)
					c.Set(nil, c.Get(nil)+1)
					inLocked.Set(nil, 0)
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

func TestSCXHTMBudget(t *testing.T) {
	t.Parallel()
	_, th, _ := newEngineThread(t, htm.Config{}, Config{Algorithm: AlgSCXHTM, AttemptLimit: 3})
	htmCalls, fallbackCalls := 0, 0
	p := th.Run(Op{SCXHTM: func(useHTM bool) bool {
		if useHTM {
			htmCalls++
			return false // always fail on the HTM path
		}
		fallbackCalls++
		return fallbackCalls == 2 // fail once, then succeed
	}})
	if p != htm.PathFallback {
		t.Fatalf("completed on %v, want fallback", p)
	}
	if htmCalls != 3 || fallbackCalls != 2 {
		t.Fatalf("htmCalls=%d fallbackCalls=%d, want 3 and 2", htmCalls, fallbackCalls)
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

// readOp builds a read-only Op whose transactional bodies read every
// cell into *sum.
func readOp(cells []htm.Word, sum *uint64) Op {
	read := func(tx *htm.Tx) {
		*sum = 0
		for i := range cells {
			*sum += cells[i].Get(tx)
		}
	}
	return Op{Site: NewSite(), Fast: read, Middle: read,
		Fallback: func() bool { read(nil); return true }, Locked: func() { read(nil) },
		SCXHTM: func(bool) bool { read(nil); return true }}
}

// TestPinnedAttemptRunsTheFirstPath: RunAt runs, once, exactly what the
// algorithm's first path runs — so a pinned read is kept off a busy
// software path by the same subscription as any fast-path transaction,
// commits as a fast-path completion, and is refused (CanPin) where the
// first path is not one transaction.
func TestPinnedAttemptRunsTheFirstPath(t *testing.T) {
	t.Parallel()
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tm := htm.New(htm.Config{})
			e := New(Config{Algorithm: alg}, tm.Clock())
			th := e.NewThread(tm.NewThread())
			if want := alg != AlgNonHTM && alg != AlgSCXHTM; th.CanPin() != want {
				t.Fatalf("CanPin = %v, want %v", th.CanPin(), want)
			}
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
			rv := tm.ClockValue()
			if st := th.RunAt(&op, rv); st != dict.PinCommitted || sum != 4 {
				t.Fatalf("quiet pinned read: status %v sum %d, want committed, 4", st, sum)
			}
			cells[3].Set(nil, 2)
			if st := th.RunAt(&op, rv); st != dict.PinAborted {
				t.Fatalf("pinned read of a cell written after rv: status %v, want aborted", st)
			}
			s := e.Stats()
			if s.Fast != 1 || s.Aborts[htm.PathFast][htm.CauseConflict] != 1 {
				t.Fatalf("engine stats %+v, want 1 fast completion and 1 fast conflict abort", s)
			}
			// Occupy the software path the algorithm's first path must
			// not overlap; 2-path-con's first path runs beside its
			// fallback and has nothing to subscribe to.
			switch alg {
			case AlgThreePath, AlgTwoPathNCon:
				defer e.cfg.Indicator.Arrive()()
			case AlgTLE:
				e.tle.Set(nil, 1)
			default:
				return
			}
			if st := th.RunAt(&op, tm.ClockValue()); st != dict.PinAborted {
				t.Fatalf("pinned read beside a busy software path: status %v, want aborted", st)
			}
			if got := th.H.Stats().Aborts[htm.PathFast][htm.CauseExplicit]; got != 1 {
				t.Fatalf("explicit aborts = %d, want 1 (the subscription)", got)
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
		if st := th.RunAt(&op, tm.ClockValue()); st != dict.PinUnfit {
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
