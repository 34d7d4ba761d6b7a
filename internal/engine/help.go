package engine

import (
	"runtime"
	"sync/atomic"

	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
	"htmtree/internal/obs"
)

// This file implements the helpable fallback path: the TLE critical
// section reimplemented as a lock-free lock in the style of "Lock-Free
// Locks Revisited" (Ben-David, Blelloch & Wei 2022).
//
// The classic TLE fallback serializes on the per-shard lock word e.tle,
// so one preempted fallback owner convoys every thread of the shard:
// fast-path transactions subscribe to the word and abort while it is
// held, and other fallback operations spin on it. The helpable variant
// removes the owner from the critical path:
//
//  1. The owner builds a HelpDesc — operation kind, arguments, and a
//     slot for the idempotent write plan — and publishes it in the
//     engine's announcement slot (Engine.announce) *before* entering the
//     locked region.
//  2. Any thread can then drive the descriptor to completion via
//     execDesc: acquire the lock word for the descriptor's generation
//     (the acquisition is thread-agnostic — e.tle.CAS(nil, 0, d.gen) by
//     whichever executor gets there first, so a preempted owner cannot
//     convoy the acquisition either), run one tree attempt that ends in
//     an llxscx.SCXRecord, install the attempt with a CAS into the
//     descriptor, and run the record. The record is the idempotent
//     write plan: llxscx's help protocol makes concurrent and repeated
//     Run calls safe, so every executor can push the same record.
//  3. The install CAS is the linearization of the descriptor's result:
//     a terminal attempt (a committed record, or Rec == nil for a
//     logical no-op) is never removed from the descriptor, which makes
//     the protocol stale-proof — a delayed helper re-running an old
//     descriptor finds the terminal attempt and stops. Aborted records
//     are CASed out and the attempt repeated.
//  4. Release is derived, not owned: any thread observing a terminal
//     attempt performs the idempotent release (e.tle.CAS(nil, d.gen, 0)
//     plus the slot retraction), so the critical section ends as soon
//     as *anyone* notices it is done.
//
// Progress: while a descriptor is announced, every blocked thread —
// fast-path waiters (helpWait), classic lock acquirers, and threads
// whose own announcement found the slot taken — works on the announced
// operation instead of spinning, so the operation completes as long as
// any thread is scheduled. Exclusion against the uninstrumented fast
// path is unchanged: fast transactions abort while the word is nonzero
// and validate it at commit, so no fast commit can interleave with the
// critical section's non-transactional writes.
//
// Reads (searches, range queries) are not helpable: their results
// cannot be delivered through an idempotent record, and the fast path's
// in-place leaf mutations make un-announced non-transactional reads
// unsound. Non-helpable operations that exhaust the fast path take the
// word classically (generation 1) and help while waiting — a documented
// departure from strict lock-freedom that only read-heavy fallback
// traffic can observe.

// HelpKind identifies the announced operation.
type HelpKind uint8

// Announced operation kinds.
const (
	HelpInsert HelpKind = iota + 1
	HelpDelete
)

// HelpAttempt is one installed execution attempt of an announced
// operation. Attempts are immutable once installed; the result fields
// are read only after the attempt is terminal, so concurrent observers
// never race on them.
type HelpAttempt struct {
	// Rec is the fallback SCX record that commits the operation's
	// writes, or nil when the attempt resolved to a logical no-op
	// (delete of an absent key), which is terminal immediately.
	Rec *llxscx.SCXRecord
	// Result is the operation's outcome, valid once the attempt is
	// terminal. Its NeedFix reaches the *owner*, who repairs the
	// violation after the critical section; helpers cannot run the fix
	// loop, which re-enters the engine.
	Result
}

// terminal reports whether the attempt reached a terminal state.
func (att *HelpAttempt) terminal() bool {
	return att.Rec == nil || att.Rec.State() == llxscx.StateCommitted
}

// HelpDesc is the announced closure descriptor of one fallback critical
// section. The engine allocates one per fallback entry (the fallback
// path is cold by construction).
type HelpDesc struct {
	// Kind, Key and Val are the operation and its arguments, fixed at
	// announce time so helpers never touch the owner's handle scratch.
	Kind HelpKind
	Key  uint64
	Val  uint64

	// gen is the value the executors hold the TLE word at: unique per
	// descriptor (from the engine's generation counter, starting at 2;
	// 1 is the classic non-helpable acquisition), so release CASes can
	// never free a word held for someone else.
	gen uint64

	// attempt is the currently installed execution attempt. nil → no
	// attempt in flight; an aborted attempt is CASed back to nil; a
	// terminal attempt stays forever.
	attempt atomic.Pointer[HelpAttempt]
}

// Finished reports whether a terminal attempt is installed. A finished
// descriptor left in the announcement slot is garbage that the next
// announce clears.
func (d *HelpDesc) Finished() bool {
	att := d.attempt.Load()
	return att != nil && att.terminal()
}

// Install tries to install att as the descriptor's current attempt.
// A ModeHelp body's update phase (Prims.SCX) calls it after preparing
// (but before running) the attempt's record; success makes the caller
// the attempt's preparer, responsible for node retirement if the record
// commits.
func (d *HelpDesc) Install(att *HelpAttempt) bool {
	return d.attempt.CompareAndSwap(nil, att)
}

// HelpableOp extends an Op with the announcement closure descriptor's
// ingredients. Ops carrying a non-nil Helpable run their fallback
// critical section through the helpable protocol when the engine has
// HelpableFallback set.
type HelpableOp struct {
	// Kind is the announced operation kind.
	Kind HelpKind
	// Args reads the operation's arguments from the handle scratch at
	// announce time (the descriptor copies them, so helpers are immune
	// to later scratch reuse).
	Args func() (key, val uint64)
	// Finish delivers the completed operation's result back into the
	// handle scratch, and the a-b-tree's deferred fix flag to the
	// owner. Called exactly once, by the owner, after the critical
	// section.
	Finish func(Result)
}

// SetHelpExec registers the structure's fallback-attempt executor: one
// run of the tree's update body in ModeHelp (prims.go) for the
// descriptor, using this thread's own handle state (search buffers, node
// pool, reclamation context). A thread with an executor helps whenever
// it waits on the engine (announce races, classic lock acquisition,
// fast-path waits).
func (th *Thread) SetHelpExec(fn func(*HelpDesc)) { th.helpExec = fn }

// announce tries to install d as the engine's current announcement. It
// fails only when another unfinished operation is already announced; a
// leftover finished descriptor is cleared and the install retried.
func (e *Engine) announce(d *HelpDesc) bool {
	for {
		cur := e.ann.Load()
		if cur != nil {
			if !cur.Finished() {
				return false
			}
			e.retract(cur)
			continue
		}
		if e.ann.CompareAndSwap(nil, d) {
			return true
		}
	}
}

// retract clears the announcement slot if it still holds d. Any thread
// observing that d finished may retract it.
func (e *Engine) retract(d *HelpDesc) { e.ann.CompareAndSwap(d, nil) }

// Help drives the engine's announced operation, if any, to completion
// with this thread's executor and reports whether it helped. It is a
// no-op inside a transaction — helping executes non-transactional
// fallback-path code, which must not nest under a live transaction
// log — and while a previous Help of this thread is still on the stack.
func (th *Thread) Help() bool {
	if th.H.InTx() || th.helpExec == nil || th.helping {
		return false
	}
	d := th.eng.ann.Load()
	if d == nil || d.Finished() {
		return false
	}
	th.helping = true
	defer func() { th.helping = false }()
	if th.rec != nil && !th.rec.Active() {
		// Helping runs non-transactional template code over shared
		// nodes, which is only safe inside an announced reclamation
		// epoch (pooled nodes must not be reused under the walk). The
		// engine's own helping points all sit inside an operation's
		// epoch; a call from outside one takes its own cover here.
		th.rec.Begin()
		defer th.rec.End()
	}
	th.execDesc(d)
	return true
}

// nextGen returns a fresh descriptor generation (≥ 2; see HelpDesc.gen).
func (e *Engine) nextGen() uint64 { return e.genCtr.Add(1) + 1 }

// execDesc drives an announced descriptor to completion and returns its
// terminal attempt. Any number of threads (the owner and helpers) may
// run it concurrently; each loops until a terminal attempt exists, then
// performs the idempotent release.
func (th *Thread) execDesc(d *HelpDesc) *HelpAttempt {
	e := th.eng
	for {
		if att := d.attempt.Load(); att != nil {
			if att.terminal() {
				th.releaseDesc(d)
				if so := th.obs; so != nil {
					// The install CAS is the linearization; record that
					// this executor observed the terminal attempt.
					so.RareEvent(obs.EvInstall, htm.PathFallback, htm.CauseNone, d.gen, 0)
				}
				return att
			}
			if att.Rec.State() == llxscx.StateAborted {
				// Failed attempt: clear it so an executor can retry.
				d.attempt.CompareAndSwap(att, nil)
				continue
			}
			// In progress: push the installed record forward. Run is
			// idempotent and helper-safe.
			att.Rec.Run()
			continue
		}
		// No attempt in flight: hold the word for this descriptor, then
		// run one tree attempt. Whoever CASes first holds it; a word
		// held by another generation (a classic locked operation, or a
		// finished descriptor whose release we lost a race with) just
		// means waiting for that holder.
		if v := e.tle.Get(nil); v != d.gen {
			if v != 0 || !e.tle.CAS(nil, 0, d.gen) {
				runtime.Gosched()
				continue
			}
		}
		th.helpExec(d)
	}
}

// releaseDesc performs the idempotent end of the critical section:
// free the word if still held for this descriptor, and retract the
// announcement if still posted. Multiple observers may race here; the
// CASes make every step exactly-once.
func (th *Thread) releaseDesc(d *HelpDesc) {
	th.eng.tle.CAS(nil, d.gen, 0)
	th.eng.retract(d)
}

// runHelpableFallback is the owner side of the protocol: announce the
// descriptor, then drive it like any helper, then deliver the result.
// The monitor bracket opens before the announcement because a helper
// may commit the operation at any moment after it is visible.
func (th *Thread) runHelpableFallback(op Op, mon *UpdateMonitor) {
	e := th.eng
	key, val := op.Helpable.Args()
	d := &HelpDesc{Kind: op.Helpable.Kind, Key: key, Val: val, gen: e.nextGen()}
	if mon != nil {
		mon.beginNonTx()
		defer mon.endNonTx()
	}
	so := th.obs
	if so != nil {
		freg := obs.StartFallbackRegion()
		defer obs.EndRegion(freg)
	}
	for !e.announce(d) {
		// Another critical section is announced: help it to completion
		// rather than waiting behind it.
		if th.Help() {
			atomic.AddUint64(&th.polstats.Helps, 1)
			if so != nil {
				so.RareEvent(obs.EvHelp, htm.PathFallback, htm.CauseNone, 0, 0)
			}
		} else {
			runtime.Gosched()
		}
	}
	if so != nil {
		so.RareEvent(obs.EvAnnounce, htm.PathFallback, htm.CauseNone, d.gen, 0)
	}
	// Owner-fault seam: the descriptor is announced and visible, the
	// critical section is not yet executed — the exact window the
	// helpable protocol's progress claim covers. A Kill effect parks
	// this goroutine forever; any other fallback entrant (or
	// help-while-blocked fast-path waiter) must drive d to completion.
	e.cfg.Faults.Hit(fault.PointFallbackOwner)
	att := th.execDesc(d)
	atomic.AddUint64(&th.fallbackAcq, 1)
	if so != nil {
		so.RareEvent(obs.EvAcquire, htm.PathFallback, htm.CauseNone, d.gen, 0)
	}
	op.Helpable.Finish(att.Result)
}

// helpWait waits for the TLE word to clear before a fast-path attempt,
// helping the announced operation instead of spinning when one is
// present: a blocked thread helps, as part of the protocol.
func (th *Thread) helpWait() {
	e := th.eng
	for i := 0; e.tle.Get(nil) != 0; i++ {
		if th.Help() {
			atomic.AddUint64(&th.polstats.Helps, 1)
			if so := th.obs; so != nil {
				so.RareEvent(obs.EvHelp, htm.PathFast, htm.CauseNone, 0, 0)
			}
			continue
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
}
