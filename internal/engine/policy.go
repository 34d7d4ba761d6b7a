package engine

import (
	"runtime"
	"sync/atomic"

	"htmtree/internal/xrand"
)

// Site carries the per-call-site state the attempt loops adapt on: a
// private PRNG stream for backoff randomization and the capacity memory
// — a saturating score for sites whose calls are all of a size, a floor
// for sites whose calls say how big they are (Op.Hint). Handles that
// build their ops once (bst, abtree, citrus, kcas all do) should give
// each op its own Site via NewSite so capacity memory is per operation
// type; ops with a nil Site share their engine thread's. A Site must not
// be used by two goroutines concurrently.
type Site struct {
	rng xrand.State
	// id is the site's process-unique identity, carried on the flight
	// recorder's abort events so a dump can attribute an abort storm to
	// one operation type's call site.
	id uint64
	// capScore counts recent fast-path capacity aborts of unhinted
	// calls, saturating at capScoreSaturation and decaying on their
	// fast-path commits. At or above capScoreSkip such calls start past
	// the fast path (the Limited Read/Write-Set HTM observation: a site
	// whose footprint cannot fit should stop burning hardware attempts).
	capScore uint32
	// hint is the footprint hint of the call in progress (Op.Hint, set
	// by Op.policySite); 0 for a call without one.
	hint uint64
	// capFloor is the smallest hint a call at this site has overflowed
	// the first path with, 0 while none has. The same observation, per
	// call instead of per site: a hinted call at or above the floor is
	// not attempted, one below it always is, so a site that mixes scans
	// of ten keys and ten thousand loses the transaction only for the
	// ones that cannot have it. A probe that commits at or above the
	// floor moves it past itself.
	capFloor uint64
}

// Retry tuning: the constants of the per-cause table in Thread.runPath
// and of the capacity memory in front of it.
const (
	// backoffBase and backoffMax bound the conflict backoff window in
	// spin iterations: a path's budgeted attempt i draws from
	// [1, min(backoffBase<<i, backoffMax)].
	backoffBase = 16
	backoffMax  = 4096
	// freeRetries is how many spurious aborts per path retry without
	// consuming budget before they start counting. The bound matters: a
	// persistent abort source — spurious injection on every access —
	// would otherwise pin the operation to the path forever.
	freeRetries = 8

	capScoreSaturation = 8
	capScoreSkip       = 3
	// capProbeEvery makes a skipping site still try the fast path on
	// roughly one skippable call in capProbeEvery, so the score can
	// decay, or the floor rise, and the site recover when its footprint
	// shrinks again.
	capProbeEvery = 16
)

// siteSeq distinguishes the PRNG streams of all sites in the process,
// so concurrent sites never walk the same backoff sequence in lockstep.
var siteSeq uint64

// NewSite returns a Site with its own PRNG stream.
func NewSite() *Site {
	n := atomic.AddUint64(&siteSeq, 1)
	return &Site{rng: *xrand.New(0xa5b35705b7e3f4d1, n), id: n}
}

// overflows reports whether the capacity memory expects the call in
// progress not to fit the first path.
func (s *Site) overflows() bool {
	if s.hint != 0 {
		return s.capFloor != 0 && s.hint >= s.capFloor
	}
	return s.capScore >= capScoreSkip
}

func (s *Site) noteCapacity() {
	switch {
	case s.hint != 0:
		if s.capFloor == 0 || s.hint < s.capFloor {
			s.capFloor = s.hint
		}
	case s.capScore < capScoreSaturation:
		s.capScore++
	}
}

func (s *Site) noteFastCommit() {
	switch {
	case s.hint != 0:
		if s.capFloor != 0 && s.hint >= s.capFloor {
			s.capFloor = s.hint + 1
		}
	case s.capScore > 0:
		s.capScore--
	}
}

// conflictBackoff draws the randomized wait before the retry that
// follows a conflict abort, from a window that doubles with every
// budgeted attempt already used on the path.
func (s *Site) conflictBackoff(used int) uint32 {
	if used > 16 {
		used = 16
	}
	bound := uint64(backoffBase) << uint(used)
	if bound > backoffMax {
		bound = backoffMax
	}
	return uint32(s.rng.Uint64n(bound) + 1)
}

// PolicyStats counts retry-policy actions across an engine's threads.
type PolicyStats struct {
	// Backoffs counts randomized waits taken before conflict re-begins.
	Backoffs uint64
	// FreeRetries counts spurious-abort retries granted without
	// consuming attempt budget.
	FreeRetries uint64
	// CapacitySkips counts paths abandoned with budget remaining after
	// a capacity abort.
	CapacitySkips uint64
	// Demotions counts operations that started past the fast path
	// because their site's capacity memory expected them not to fit.
	Demotions uint64
}

// Merge adds another snapshot into s.
func (s *PolicyStats) Merge(o PolicyStats) {
	s.Backoffs += o.Backoffs
	s.FreeRetries += o.FreeRetries
	s.CapacitySkips += o.CapacitySkips
	s.Demotions += o.Demotions
}

// addAtomic accumulates a live per-thread accumulator into s using
// atomic loads (the Stats counterpart of PolicyStats.Merge).
func (s *PolicyStats) addAtomic(o *PolicyStats) {
	s.Backoffs += atomic.LoadUint64(&o.Backoffs)
	s.FreeRetries += atomic.LoadUint64(&o.FreeRetries)
	s.CapacitySkips += atomic.LoadUint64(&o.CapacitySkips)
	s.Demotions += atomic.LoadUint64(&o.Demotions)
}

// backoffSpin busy-waits for roughly n iterations of register-only
// work, yielding the processor periodically so backoff under
// oversubscription cannot starve the conflict winner it is waiting for.
func backoffSpin(n uint32) {
	x := uint64(1)
	for i := uint32(0); i < n; i++ {
		// An LCG step the compiler cannot elide (x feeds the branch).
		x = x*6364136223846793005 + 1442695040888963407
		if x == 0 || i&255 == 255 {
			runtime.Gosched()
		}
	}
}
