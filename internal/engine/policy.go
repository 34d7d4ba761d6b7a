package engine

import (
	"runtime"
	"sync/atomic"

	"htmtree/internal/htm"
	"htmtree/internal/xrand"
)

// Action is what an attempt loop does after a failed transactional
// attempt, as directed by the engine's RetryPolicy.
type Action uint8

// Retry actions.
const (
	// ActionRetry re-attempts the same path, consuming one unit of the
	// path's attempt budget.
	ActionRetry Action = iota
	// ActionFreeRetry re-attempts the same path without consuming
	// budget. Policies must bound how often they grant it (the free
	// counter passed to AfterAbort exists for that), or a persistent
	// abort source — e.g. spurious injection on every access — would
	// pin the operation to the path forever.
	ActionFreeRetry
	// ActionNextPath abandons the path's remaining budget and moves the
	// operation to the algorithm's next path.
	ActionNextPath
)

// Decision is a RetryPolicy's verdict on one failed attempt.
type Decision struct {
	Action Action
	// Backoff is how many spin iterations to wait before re-attempting
	// (0 = re-begin immediately). Ignored for ActionNextPath.
	Backoff uint32
}

// Site carries the per-call-site state a RetryPolicy adapts on: a
// private PRNG stream for backoff randomization and a saturating
// capacity score. Handles that build their ops once (bst, abtree,
// citrus, kcas all do) should give each op its own Site via NewSite so
// capacity memory is per operation type; ops with a nil Site share
// their engine thread's. A Site must not be used by two goroutines
// concurrently.
type Site struct {
	rng xrand.State
	// id is the site's process-unique identity, carried on the flight
	// recorder's abort events so a dump can attribute an abort storm to
	// one operation type's call site.
	id uint64
	// capScore counts recent fast-path capacity aborts, saturating at
	// capScoreSaturation and decaying on fast-path commits. At or above
	// capScoreSkip the adaptive policy starts operations past the fast
	// path (the Limited Read/Write-Set HTM observation: a site whose
	// footprint cannot fit should stop burning hardware attempts).
	capScore uint32
}

// Site tuning. These are engine mechanism, shared by all policies that
// choose to consult the score.
const (
	capScoreSaturation = 8
	capScoreSkip       = 3
	// capProbeEvery makes a skipping site still try the fast path on
	// roughly one operation in capProbeEvery, so the score can decay
	// and the site recover when its footprint shrinks again.
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

func (s *Site) noteCapacity() {
	if s.capScore < capScoreSaturation {
		s.capScore++
	}
}

func (s *Site) noteFastCommit() {
	if s.capScore > 0 {
		s.capScore--
	}
}

// RetryPolicy decides, from the abort taxonomy, what a failed
// transactional attempt does next. One policy instance serves every
// thread of an engine, so implementations must be stateless (or
// internally synchronized); per-site mutable state belongs in the Site
// the engine passes in, which is owned by one goroutine at a time.
type RetryPolicy interface {
	// Name identifies the policy in benchmark output ("static",
	// "adaptive").
	Name() string
	// AfterAbort is consulted after every failed transactional attempt.
	// used and free are the budgeted and free attempts already consumed
	// on this path during this operation. The engine enforces the
	// path's budget itself; AfterAbort only chooses among retrying,
	// retrying for free, and abandoning the path.
	AfterAbort(site *Site, path htm.PathKind, ab htm.Abort, used, free int) Decision
	// SkipFast reports whether an operation at this site should start
	// past the fast path (on the middle path for 3-path, the software
	// path otherwise), typically because the site's capacity score says
	// its footprint will not fit anyway.
	SkipFast(site *Site) bool
}

// FallbackHelper is an optional RetryPolicy extension consulted by the
// helpable fallback (Config.HelpableFallback): when HelpWhileBlocked
// reports true, a fast-path thread blocked on the fallback lock word
// spends its wait helping the announced operation (one help, then
// re-check the word) instead of burning backoff spins. AdaptivePolicy
// opts in; StaticPolicy keeps the plain wait, preserving the baseline's
// behavior for comparison.
type FallbackHelper interface {
	HelpWhileBlocked() bool
}

// StaticPolicy is the cause-blind baseline: every abort consumes one
// budgeted attempt with no backoff, and no site ever skips the fast
// path. This is the fixed-budget loop of the paper's Section 7 setup
// (and of this engine before the abort taxonomy was surfaced), kept as
// the comparison point the policy tests run the adaptive table against.
type StaticPolicy struct{}

// Name returns "static".
func (StaticPolicy) Name() string { return "static" }

// AfterAbort always retries, consuming budget.
func (StaticPolicy) AfterAbort(*Site, htm.PathKind, htm.Abort, int, int) Decision {
	return Decision{Action: ActionRetry}
}

// SkipFast always reports false.
func (StaticPolicy) SkipFast(*Site) bool { return false }

// AdaptivePolicy adapts to the abort cause, in the style of the
// per-cause retry loops production TM locks use (Cavalia's RtmLock is
// the canonical shape):
//
//   - conflict: retry after a randomized backoff drawn from a bounded
//     exponentially growing window — the losers of a conflict spread
//     out instead of re-colliding on the same cache lines;
//   - capacity: abandon the path immediately (the footprint will not
//     shrink by retrying) and bump the site's capacity score, which at
//     capScoreSkip makes future operations start past the fast path;
//   - spurious: retry without consuming budget, up to FreeRetries per
//     path — transient events say nothing about the attempt's odds;
//   - explicit: retry, consuming budget (logical retries are the
//     structure's business; the engine handles its own busy codes).
type AdaptivePolicy struct {
	// BackoffBase and BackoffMax bound the conflict backoff window in
	// spin iterations: attempt i draws from [1, min(BackoffBase<<i,
	// BackoffMax)].
	BackoffBase uint32
	BackoffMax  uint32
	// FreeRetries is how many spurious aborts per path retry without
	// consuming budget before they start counting.
	FreeRetries int
}

// NewAdaptivePolicy returns an AdaptivePolicy with the default tuning.
func NewAdaptivePolicy() *AdaptivePolicy {
	return &AdaptivePolicy{BackoffBase: 16, BackoffMax: 4096, FreeRetries: 8}
}

// Name returns "adaptive".
func (*AdaptivePolicy) Name() string { return "adaptive" }

// AfterAbort implements the per-cause table above.
func (p *AdaptivePolicy) AfterAbort(site *Site, _ htm.PathKind, ab htm.Abort, used, free int) Decision {
	switch ab.Cause {
	case htm.CauseCapacity:
		return Decision{Action: ActionNextPath}
	case htm.CauseConflict:
		shift := used
		if shift > 16 {
			shift = 16
		}
		bound := uint64(p.BackoffBase) << uint(shift)
		if max := uint64(p.BackoffMax); bound > max {
			bound = max
		}
		return Decision{Action: ActionRetry, Backoff: uint32(site.rng.Uint64n(bound) + 1)}
	case htm.CauseSpurious:
		if free < p.FreeRetries {
			return Decision{Action: ActionFreeRetry}
		}
	}
	return Decision{Action: ActionRetry}
}

// HelpWhileBlocked opts fast-path threads blocked on the fallback lock
// into helping the announced operation (see FallbackHelper).
func (p *AdaptivePolicy) HelpWhileBlocked() bool { return true }

// SkipFast consults the site's capacity score, still probing the fast
// path on ~1/capProbeEvery operations so the score can recover.
func (p *AdaptivePolicy) SkipFast(site *Site) bool {
	if site.capScore < capScoreSkip {
		return false
	}
	return site.rng.Uint64n(capProbeEvery) != 0
}

// PolicyNames lists the selectable policies, default first.
var PolicyNames = []string{"adaptive", "static"}

// ParsePolicy converts a policy name to a fresh policy instance,
// reporting whether the name was recognized. An empty name selects the
// default (adaptive).
func ParsePolicy(s string) (RetryPolicy, bool) {
	switch s {
	case "", "adaptive":
		return NewAdaptivePolicy(), true
	case "static":
		return StaticPolicy{}, true
	default:
		return nil, false
	}
}

// PolicyStats counts retry-policy actions across an engine's threads.
type PolicyStats struct {
	// Backoffs counts randomized waits taken before conflict re-begins.
	Backoffs uint64
	// FreeRetries counts spurious-abort retries granted without
	// consuming attempt budget.
	FreeRetries uint64
	// CapacitySkips counts paths abandoned with budget remaining
	// (ActionNextPath).
	CapacitySkips uint64
	// Demotions counts operations that started past the fast path
	// because their site's capacity score was saturated.
	Demotions uint64
	// Helps counts announced fallback operations this engine's threads
	// helped complete while blocked (helpable fallback only).
	Helps uint64
}

// Merge adds another snapshot into s.
func (s *PolicyStats) Merge(o PolicyStats) {
	s.Backoffs += o.Backoffs
	s.FreeRetries += o.FreeRetries
	s.CapacitySkips += o.CapacitySkips
	s.Demotions += o.Demotions
	s.Helps += o.Helps
}

// addAtomic accumulates a live per-thread accumulator into s using
// atomic loads (the Stats counterpart of PolicyStats.Merge).
func (s *PolicyStats) addAtomic(o *PolicyStats) {
	s.Backoffs += atomic.LoadUint64(&o.Backoffs)
	s.FreeRetries += atomic.LoadUint64(&o.FreeRetries)
	s.CapacitySkips += atomic.LoadUint64(&o.CapacitySkips)
	s.Demotions += atomic.LoadUint64(&o.Demotions)
	s.Helps += atomic.LoadUint64(&o.Helps)
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
