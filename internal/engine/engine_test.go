package engine

import (
	"sync"
	"testing"

	"htmtree/internal/htm"
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
