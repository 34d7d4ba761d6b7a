package engine

import (
	"testing"

	"htmtree/internal/dict"
	"htmtree/internal/htm"
)

// txAlgorithms are the algorithms with a transactional fast path, i.e.
// the ones the retry policy actually steers.
var txAlgorithms = []Algorithm{AlgTLE, AlgTwoPathConc, AlgTwoPathNCon, AlgThreePath}

// TestTLELockedBodyPanicReleasesLock is the regression test for the TLE
// lock leak: a panic out of the locked body must release the global
// lock, or every later operation of the engine wedges (elided attempts
// subscribe to the lock, and the locked path spins on it).
func TestTLELockedBodyPanicReleasesLock(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	e := New(Config{Algorithm: AlgTLE}, nil)
	th := e.NewThread(tm.NewThread())
	var c htm.Word

	// Drive the operation to the locked path (every elided attempt aborts
	// explicitly), then panic out of the locked body.
	func() {
		defer func() {
			if r := recover(); r != "locked-body-boom" {
				t.Fatalf("recovered %v, want locked-body-boom", r)
			}
		}()
		th.Run(Op{
			Update: true,
			Fast: func(tx *htm.Tx) {
				if tx != nil {
					tx.Abort(CodeRetry)
				}
				panic("locked-body-boom")
			},
		})
	}()

	// The lock must be free: an ordinary TLE operation completes. If the
	// panic stranded the lock this spins forever and the test times out.
	done := make(chan struct{})
	go func() {
		defer close(done)
		th2 := e.NewThread(tm.NewThread())
		for i := 0; i < 10; i++ {
			th2.Run(Op{
				Update: true,
				Fast:   func(tx *htm.Tx) { c.Set(tx, c.Get(tx)+1) },
			})
		}
	}()
	<-done
	if got := c.Get(nil); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
}

// TestAbortCauseBuckets induces each abort cause on each transactional
// algorithm and asserts it lands in the matching
// Stats().Aborts[path][cause] bucket.
func TestAbortCauseBuckets(t *testing.T) {
	t.Parallel()
	overflow := func(cells []htm.Word) func(tx *htm.Tx) {
		return func(tx *htm.Tx) {
			for i := range cells {
				_ = cells[i].Get(tx)
			}
		}
	}
	cases := []struct {
		name   string
		htmCfg htm.Config
		mkOp   func() Op
		cause  htm.AbortCause
	}{
		{
			name:   "spurious",
			htmCfg: abortEveryAccess(),
			mkOp: func() Op {
				var c htm.Word
				return counterOp(&c)
			},
			cause: htm.CauseSpurious,
		},
		{
			name:   "capacity",
			htmCfg: htm.Config{ReadCapacity: 2},
			mkOp: func() Op {
				cells := make([]htm.Word, 8)
				body := overflow(cells)
				return Op{Fast: body, Middle: body,
					Fallback: func() bool { return true }}
			},
			cause: htm.CauseCapacity,
		},
		{
			name:   "explicit",
			htmCfg: htm.Config{},
			mkOp: func() Op {
				body := func(tx *htm.Tx) {
					if tx != nil { // TLE's locked body completes
						tx.Abort(CodeRetry)
					}
				}
				return Op{Fast: body, Middle: body,
					Fallback: func() bool { return true }}
			},
			cause: htm.CauseExplicit,
		},
		{
			name:   "conflict",
			htmCfg: htm.Config{},
			mkOp: func() Op {
				var c, w htm.Word
				// Read c, then invalidate the read from outside the
				// transaction: commit-time validation reports a conflict.
				body := func(tx *htm.Tx) {
					_ = c.Get(tx)
					c.Set(nil, c.Get(nil)+1)
					w.Set(tx, 1)
				}
				return Op{Fast: body, Middle: body,
					Fallback: func() bool { return true }}
			},
			cause: htm.CauseConflict,
		},
	}
	for _, tc := range cases {
		for _, alg := range txAlgorithms {
			tc, alg := tc, alg
			t.Run("adaptive/"+tc.name+"/"+alg.String(), func(t *testing.T) {
				t.Parallel()
				tm := htm.New(tc.htmCfg)
				e := New(Config{Algorithm: alg}, nil)
				th := e.NewThread(tm.NewThread())
				th.Run(tc.mkOp())
				s := e.Stats()
				if got := s.Aborts[htm.PathFast][tc.cause]; got == 0 {
					t.Fatalf("Aborts[fast][%v] = 0, want > 0 (all: %v)", tc.cause, s.Aborts)
				}
				// Nothing may land in the other causes' buckets.
				for c := htm.AbortCause(1); c < htm.NumCauses; c++ {
					if c != tc.cause && s.Aborts[htm.PathFast][c] != 0 {
						t.Fatalf("Aborts[fast][%v] = %d, want 0", c, s.Aborts[htm.PathFast][c])
					}
				}
			})
		}
	}
}

// TestAdaptiveCapacityConsumesPathBudget asserts that a capacity abort
// abandons the path after a single attempt on every algorithm (retrying
// cannot shrink the footprint).
func TestAdaptiveCapacityConsumesPathBudget(t *testing.T) {
	t.Parallel()
	for _, alg := range txAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tm := htm.New(htm.Config{ReadCapacity: 2})
			e := New(Config{Algorithm: alg}, nil)
			th := e.NewThread(tm.NewThread())
			cells := make([]htm.Word, 8)
			body := func(tx *htm.Tx) {
				for i := range cells {
					_ = cells[i].Get(tx)
				}
			}
			p := th.Run(Op{Fast: body, Middle: body,
				Fallback: func() bool { return true }})
			if p != htm.PathFallback {
				t.Fatalf("completed on %v, want fallback", p)
			}
			s := e.Stats()
			if got := s.Aborts[htm.PathFast][htm.CauseCapacity]; got != 1 {
				t.Fatalf("fast capacity aborts = %d, want 1 (path abandoned immediately)", got)
			}
			wantSkips := uint64(1)
			if alg == AlgThreePath {
				if got := s.Aborts[htm.PathMiddle][htm.CauseCapacity]; got != 1 {
					t.Fatalf("middle capacity aborts = %d, want 1", got)
				}
				wantSkips = 2
			}
			if s.Policy.CapacitySkips != wantSkips {
				t.Fatalf("CapacitySkips = %d, want %d", s.Policy.CapacitySkips, wantSkips)
			}
		})
	}
}

// TestAdaptiveSpuriousFreeRetries pins the free-retry accounting: with
// every access aborting spuriously, each transactional path grants
// exactly freeRetries budget-exempt attempts on top of its half of the
// 3-path budget.
func TestAdaptiveSpuriousFreeRetries(t *testing.T) {
	t.Parallel()
	tm := htm.New(abortEveryAccess())
	e := New(Config{Algorithm: AlgThreePath}, nil)
	th := e.NewThread(tm.NewThread())
	var c htm.Word
	if p := th.Run(counterOp(&c)); p != htm.PathFallback {
		t.Fatalf("completed on %v, want fallback", p)
	}
	s := e.Stats()
	const free, half = freeRetries, attemptBudget / 2
	if want := uint64(half + free); s.Aborts[htm.PathFast][htm.CauseSpurious] != want {
		t.Fatalf("fast spurious aborts = %d, want budget+free = %d",
			s.Aborts[htm.PathFast][htm.CauseSpurious], want)
	}
	if want := uint64(half + free); s.Aborts[htm.PathMiddle][htm.CauseSpurious] != want {
		t.Fatalf("middle spurious aborts = %d, want budget+free = %d",
			s.Aborts[htm.PathMiddle][htm.CauseSpurious], want)
	}
	if want := uint64(2 * free); s.Policy.FreeRetries != want {
		t.Fatalf("FreeRetries = %d, want %d", s.Policy.FreeRetries, want)
	}
}

// TestAdaptiveConflictBackoff checks conflict aborts take randomized
// backoffs (and only conflicts do).
func TestAdaptiveConflictBackoff(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	e := New(Config{Algorithm: AlgTwoPathConc}, nil)
	th := e.NewThread(tm.NewThread())
	var c, w htm.Word
	body := func(tx *htm.Tx) {
		_ = c.Get(tx)
		c.Set(nil, c.Get(nil)+1) // invalidate our own read set
		w.Set(tx, 1)
	}
	if p := th.Run(Op{Middle: body, Fallback: func() bool { return true }}); p != htm.PathFallback {
		t.Fatalf("completed on %v, want fallback", p)
	}
	s := e.Stats()
	if s.Policy.Backoffs != attemptBudget {
		t.Fatalf("Backoffs = %d, want one per conflict abort (%d)", s.Policy.Backoffs, attemptBudget)
	}
}

// TestCapacityDemotesSite checks the saturating capacity score: a site
// that keeps overflowing the fast path gets demoted (operations start
// on the middle path), with occasional probes keeping recovery
// possible.
func TestCapacityDemotesSite(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{ReadCapacity: 2})
	e := New(Config{Algorithm: AlgThreePath}, nil)
	th := e.NewThread(tm.NewThread())
	cells := make([]htm.Word, 8)
	body := func(tx *htm.Tx) {
		for i := range cells {
			_ = cells[i].Get(tx)
		}
	}
	op := Op{Site: NewSite(), Fast: body, Middle: body,
		Fallback: func() bool { return true }}
	const runs = 64
	for i := 0; i < runs; i++ {
		th.Run(op)
	}
	s := e.Stats()
	if s.Policy.Demotions == 0 {
		t.Fatal("no demotions after repeated capacity overflow")
	}
	// Demoted operations skip the fast path entirely, so it sees far
	// fewer capacity aborts than one per run (only the pre-demotion runs
	// and the ~1/16 probes).
	fast := s.Aborts[htm.PathFast][htm.CauseCapacity]
	if fast+s.Policy.Demotions != runs {
		t.Fatalf("fast attempts (%d) + demotions (%d) != runs (%d)",
			fast, s.Policy.Demotions, runs)
	}
	if fast >= runs/2 {
		t.Fatalf("fast capacity aborts = %d of %d runs; site never demoted", fast, runs)
	}
}

// hintedReader is a read-only op whose calls say how big they are: a
// call with hint n reads n/div cells, against a read capacity of
// floorTestCapacity.
type hintedReader struct {
	tm    *htm.TM
	e     *Engine
	th    *Thread
	op    Op
	cells []htm.Word
	div   int
}

const floorTestCapacity = 64

func newHintedReader(alg Algorithm) *hintedReader {
	r := &hintedReader{tm: htm.New(htm.Config{ReadCapacity: floorTestCapacity}), cells: make([]htm.Word, 512), div: 1}
	r.e = New(Config{Algorithm: alg}, nil)
	r.th = r.e.NewThread(r.tm.NewThread())
	read := func(tx *htm.Tx) {
		for i := 0; i < int(r.op.Hint)/r.div; i++ {
			_ = r.cells[i].Get(tx)
		}
	}
	r.op = Op{Site: NewSite(), Fast: read,
		Fallback: func() bool { return true }}
	return r
}

func (r *hintedReader) run(hint uint64) htm.PathKind {
	r.op.Hint = hint
	return r.th.Run(r.op)
}

// attempts returns how many first-path transactions the reader has begun
// and how many calls it has demoted past that path.
func (r *hintedReader) attempts() (begun, demoted uint64) {
	hs := r.tm.Stats()
	return hs.Commits[htm.PathFast] + hs.TotalAborts(htm.PathFast), r.e.Stats().Policy.Demotions
}

// TestCapacityFloorLearnsTheSmallestOverflow: a site whose calls carry a
// footprint hint remembers the smallest hint that overflowed the first
// path and decides per call — at or above the floor a call is not
// attempted (bar one probe in capProbeEvery), below it a call always is,
// whatever larger calls did — and a probe that commits moves the floor
// past itself. Every algorithm with a transactional first path shares
// the memory.
func TestCapacityFloorLearnsTheSmallestOverflow(t *testing.T) {
	t.Parallel()
	for _, alg := range txAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			r := newHintedReader(alg)
			// Nothing learned yet: every size is attempted once, and each
			// overflow lowers the floor to its hint.
			const smallest, fits = floorTestCapacity + 6, floorTestCapacity - 4
			for _, hint := range []uint64{400, 100, 200, smallest} {
				if p := r.run(hint); p != htm.PathFallback {
					t.Fatalf("hint %d completed on %v, want the software path", hint, p)
				}
			}
			// 400 and 100 were attempted and overflowed; 200 is above the
			// floor they left (skipped, or probed); smallest is below it.
			if begun, demoted := r.attempts(); begun+demoted != 4 || begun < 3 {
				t.Fatalf("learning: %d attempts, %d demotions", begun, demoted)
			}
			if got := r.op.Site.capFloor; got != smallest {
				t.Fatalf("floor = %d, want the smallest overflowing hint %d", got, smallest)
			}

			// Below the floor: always attempted, and it fits.
			begun0, demoted0 := r.attempts()
			for i := 0; i < 200; i++ {
				if p := r.run(fits); p != htm.PathFast {
					t.Fatalf("hint %d below the floor completed on %v", fits, p)
				}
			}
			if begun, demoted := r.attempts(); begun-begun0 != 200 || demoted != demoted0 {
				t.Fatalf("below the floor: %d attempts and %d demotions in 200 calls", begun-begun0, demoted-demoted0)
			}

			// At or above it: skipped, except the probes.
			const calls = 3200
			begun0, demoted0 = r.attempts()
			for i := 0; i < calls; i++ {
				hint := uint64(smallest + i%300)
				if p := r.run(hint); p != htm.PathFallback {
					t.Fatalf("hint %d at or above the floor completed on %v", hint, p)
				}
			}
			begun, demoted := r.attempts()
			probes := begun - begun0
			if probes+demoted-demoted0 != calls {
				t.Fatalf("%d probes + %d demotions != %d calls", probes, demoted-demoted0, calls)
			}
			if want := uint64(calls / capProbeEvery); probes < want/2 || probes > 2*want {
				t.Fatalf("%d probes in %d skippable calls, want about 1 in %d", probes, calls, capProbeEvery)
			}
			if got := r.op.Site.capFloor; got != smallest {
				t.Fatalf("floor = %d after overflowing probes, want it unmoved at %d", got, smallest)
			}

			// The footprint per unit of hint shrinks fourfold: the next
			// probe of a 200-hint call commits, and from then on 200 is
			// below the floor and always attempted.
			r.div = 4
			for r.op.Site.capFloor <= 200 {
				r.run(200)
			}
			if got := r.op.Site.capFloor; got != 201 {
				t.Fatalf("floor = %d after a probe at 200 committed, want 201", got)
			}
			begun0, demoted0 = r.attempts()
			for i := 0; i < 100; i++ {
				if p := r.run(200); p != htm.PathFast {
					t.Fatalf("hint 200 below the raised floor completed on %v", p)
				}
			}
			if begun, demoted := r.attempts(); begun-begun0 != 100 || demoted != demoted0 {
				t.Fatalf("below the raised floor: %d attempts and %d demotions in 100 calls", begun-begun0, demoted-demoted0)
			}
		})
	}
}

// TestCapacityFloorRefusesPinnedAttempts: RunAt consults the same
// memory — a pinned call at or above its site's floor is answered
// dict.PinUnfit without a transaction (bar the probes, which overflow
// and answer the same), one below it is attempted.
func TestCapacityFloorRefusesPinnedAttempts(t *testing.T) {
	t.Parallel()
	r := newHintedReader(AlgThreePath)
	pin := func(hint uint64) dict.PinStatus {
		r.op.Hint = hint
		return r.th.RunAt(&r.op, r.tm.Clock().Now())
	}
	if st := pin(100); st != dict.PinUnfit {
		t.Fatalf("overflowing pinned call: %v, want unfit", st)
	}
	const calls = 320
	begun0, demoted0 := r.attempts()
	for i := 0; i < calls; i++ {
		if st := pin(100 + uint64(i%50)); st != dict.PinUnfit {
			t.Fatalf("pinned call above the floor: %v, want unfit", st)
		}
	}
	begun, demoted := r.attempts()
	if probes := begun - begun0; probes+demoted-demoted0 != calls || probes > calls/4 {
		t.Fatalf("%d transactions and %d demotions in %d pinned calls above the floor", probes, demoted-demoted0, calls)
	}
	if st := pin(floorTestCapacity - 4); st != dict.PinCommitted {
		t.Fatalf("pinned call below the floor: %v, want committed", st)
	}
}
