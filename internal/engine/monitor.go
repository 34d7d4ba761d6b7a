package engine

import (
	"sync/atomic"

	"htmtree/internal/htm"
)

// UpdateMonitor publishes the commit points of a dictionary's update
// operations so that an external reader (the sharding layer's fan-out
// range queries) can tell whether any update committed, or was in
// flight, during a window of time. It is the per-shard half of the
// optimistic cross-shard snapshot validation scheme: the shard layer
// samples every overlapping shard's monitor, reads the shards, and
// re-validates the samples; an unchanged monitor proves the shard's
// logical content was stable over the whole window.
//
// Two disciplines cover the template's execution paths (Section 5 of
// the paper):
//
//   - Transactional paths (HTM fast path, middle path, TLE's elided
//     path) bump a version counter inside the update's own transaction
//     via htm.Word.AddAtCommit, so the bump is atomic with the
//     operation's commit — a reader either sees the operation and its
//     bump, or neither.
//   - Non-transactional paths (the lock-free fallback's SCX, TLE's
//     locked body, the Section 4 HTM-SCX algorithm) have no single
//     commit instruction the monitor can piggyback on, so they bracket
//     the whole operation with ingress/egress counters, seqlock style:
//     a reader treats "ingress != egress" or "ingress moved" as a
//     possible concurrent commit.
//
// The monitor also carries a quiesce gate — an Indicator, the same
// abstraction as the paper's fallback-presence indicator — that lets a
// reader that keeps losing the optimistic race briefly hold off new
// update operations so validation is guaranteed to succeed after the
// in-flight operations drain. As with F in the paper, an operation waits
// for the gate in exactly one place, and that place is not the engine:
// whoever closes the gate (the sharding layer) admits every update with
// Enter before calling into the structure and marks it complete with
// Exit, and Thread.Run only publishes commits. The sharding layer's live
// key migration uses the same gate as a brief two-shard mutual exclusion:
// Quiesce drains every admitted update (transactional or not, tracked by
// the inflight counter), after which the holder mutates the shard
// through ordinary inner handles — nothing below the admission point
// looks at the gate — while Bracket keeps concurrent optimistic readers
// invalidated.
type UpdateMonitor struct {
	// txver counts updates committed on transactional paths. Bumped via
	// AddAtCommit so concurrent updaters only collide on the commit-time
	// lock, not on each other's read sets.
	txver htm.Word
	// nin/nout bracket updates on non-transactional paths: nin is
	// incremented when such an operation starts, nout when it completes.
	// nin == nout means none is in flight. Plain atomics, not htm cells:
	// they are never accessed transactionally, and an htm.Word bump
	// would advance the global version clock — forcing unrelated
	// concurrent transactions process-wide into full read-set
	// validation on every bracketed update.
	nin, nout atomic.Uint64
	// inflight counts update operations between Enter and Exit on every
	// path (transactional or not), but only when fullDrain is set: the two
	// read-modify-writes per update it costs are a per-shard serialization
	// point, so plain Atomic dictionaries keep the read-only gate check
	// and only rebalancing dictionaries — whose migrations need to know
	// that *no* update at all is in flight — pay for the accounting. With
	// fullDrain, Quiesce waits for the counter to reach zero.
	inflight  atomic.Int64
	fullDrain bool
	// gate holds off new update operations while a reader quiesces the
	// shard. Readers Arrive/Depart; updaters wait while it is nonzero.
	gate Indicator
	// quiesces counts completed Quiesce calls (escalated readers and
	// migrations), reported as OpStats.Quiesces of the engine it serves.
	quiesces atomic.Uint64
}

// NewUpdateMonitor creates a monitor. A nil gate selects the plain
// fetch-and-increment indicator.
func NewUpdateMonitor(gate Indicator) *UpdateMonitor {
	if gate == nil {
		gate = &counterIndicator{}
	}
	return &UpdateMonitor{gate: gate}
}

// Bind associates the monitor's cells — the transactional version
// counter and the quiesce gate — with the version clock of the TM whose
// update transactions publish through it. engine.New binds the monitor
// of its Config; a monitor serves exactly one engine (one shard), so it
// joins exactly one clock domain.
func (m *UpdateMonitor) Bind(c *htm.Clock) {
	m.txver.Bind(c)
	m.gate.Bind(c)
}

// bumpTx publishes an update committing on a transactional path. Called
// by the engine inside the update's transaction, so the bump commits
// atomically with the operation. With a nil tx it does nothing: a
// prepared Fast body run under the TLE lock (Op.Locked == nil) is inside
// the non-transactional bracket, which publishes it.
func (m *UpdateMonitor) bumpTx(tx *htm.Tx) {
	if tx != nil {
		m.txver.AddAtCommit(tx, 1)
	}
}

// beginNonTx / endNonTx bracket an update running on a path whose
// commit is not a single transaction.
func (m *UpdateMonitor) beginNonTx() { m.nin.Add(1) }
func (m *UpdateMonitor) endNonTx()   { m.nout.Add(1) }

// nonTxInFlight reports whether a bracketed update is in flight.
func (m *UpdateMonitor) nonTxInFlight() bool {
	return m.nin.Load() != m.nout.Load()
}

// EnableFullDrain switches the monitor to full in-flight accounting
// (see the inflight field). Must be called before the monitor is used;
// the shard layer sets it on rebalancing dictionaries, whose
// migrations need Quiesce to guarantee exclusive update access.
func (m *UpdateMonitor) EnableFullDrain() { m.fullDrain = true }

// Enter admits an update operation (or a batch group of them): it waits
// out the quiesce gate and, under EnableFullDrain, registers the
// operation as in flight. The in-flight counter is raised before the gate
// is checked, so a Quiesce that observes the counter at zero after
// arriving on the gate knows no update can slip past it (an updater that
// raced the arrival either registered first — and Quiesce waits for it —
// or sees the gate and backs off). Under EnableFullDrain the admission
// also pins the shard: a migration's Quiesce waits for it, so a caller
// that routes, Enters and then re-checks its routing table has made
// route-and-admit atomic. The caller must not be inside the structure's
// reclamation bracket (a waiter there would pin an epoch for as long as
// the gate stays closed), and must call Exit when the operation
// completes.
func (m *UpdateMonitor) Enter() {
	if !m.fullDrain {
		waitWhile(func() bool { return m.gate.Nonzero(nil) })
		return
	}
	for {
		m.inflight.Add(1)
		if !m.gate.Nonzero(nil) {
			return
		}
		m.inflight.Add(-1)
		waitWhile(func() bool { return m.gate.Nonzero(nil) })
	}
}

// Exit marks an update admitted by Enter as complete.
func (m *UpdateMonitor) Exit() {
	if m.fullDrain {
		m.inflight.Add(-1)
	}
}

// MonitorSample is a reader's snapshot of a monitor, taken with Sample
// and checked with Validate.
type MonitorSample struct {
	ver uint64 // transactional-path version counter
	in  uint64 // non-transactional ingress counter
}

// Sample captures the monitor's state before a read of the shard.
// ok is false when a non-transactional update is in flight (the read
// would race its uninstrumented commit); the caller should retry.
//
// The read order matters for the validation proof: egress before
// ingress (so a bracketed operation spanning the reads is seen as in
// flight, never as complete), and the version counter last (so it is
// the latest point the pre-read state is known to cover).
func (m *UpdateMonitor) Sample() (MonitorSample, bool) {
	out := m.nout.Load()
	in := m.nin.Load()
	ver := m.txver.Get(nil)
	if in != out {
		return MonitorSample{}, false
	}
	return MonitorSample{ver: ver, in: in}, true
}

// Validate reports whether the shard's logical content has provably not
// changed since s was taken: no transactional update committed (version
// unchanged) and no non-transactional update started (ingress
// unchanged; s itself proved none was in flight).
func (m *UpdateMonitor) Validate(s MonitorSample) bool {
	return m.txver.Get(nil) == s.ver && m.nin.Load() == s.in
}

// Quiesce arrives on the gate — holding off update operations that have
// not yet started — and waits for in-flight updates to drain. The
// returned function releases the gate.
//
// Under EnableFullDrain every admitted update (on any path) is waited
// out: after Quiesce returns, no update is in flight and none can
// start until release, so a Sample/read/Validate pass is guaranteed to
// succeed and a writer holding the gate (the shard layer's key
// migration) has exclusive update access. Without it only
// non-transactional updates are drained; the finitely many
// transactional updates already past the gate can still commit, so a
// Sample/read/Validate loop under Quiesce terminates but may retry a
// bounded number of times.
func (m *UpdateMonitor) Quiesce() (release func()) {
	m.gate.Arrive()
	if m.fullDrain {
		waitWhile(func() bool { return m.inflight.Load() != 0 })
	} else {
		waitWhile(m.nonTxInFlight)
	}
	m.quiesces.Add(1)
	return m.gate.Depart
}

// Quiesces returns the number of completed Quiesce calls.
func (m *UpdateMonitor) Quiesces() uint64 { return m.quiesces.Load() }

// Bracket registers an externally driven multi-operation update (the
// shard layer's key migration) exactly like a non-transactional update
// path: while the returned done function has not been called, readers
// sampling the monitor observe an update in flight and retry, and a
// sample taken before Bracket fails validation afterwards. Bracket does
// not wait on the gate; callers are expected to hold it (via Quiesce).
func (m *UpdateMonitor) Bracket() (done func()) {
	m.beginNonTx()
	return m.endNonTx
}
