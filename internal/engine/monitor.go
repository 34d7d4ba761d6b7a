package engine

import (
	"sync/atomic"

	"htmtree/internal/htm"
)

// UpdateMonitor publishes the update operations of a dictionary so that
// an external reader (the sharding layer's fan-out range queries) can
// tell whether any update committed, or was in flight, during a window
// of time. It is the per-shard half of the optimistic cross-shard
// snapshot validation scheme: the shard layer samples every overlapping
// shard's monitor, reads the shards, and re-validates the samples; an
// unchanged monitor proves the shard's logical content was stable over
// the whole window.
//
// One discipline covers every execution path of the template (Section 5
// of the paper): Thread.run brackets the whole update operation with
// ingress/egress counters, seqlock style, whichever paths it goes on to
// take. An update's commit lies somewhere inside its bracket — in a
// transaction, at a fallback-path SCX, under TLE's lock or in the
// standalone HTM SCX of Section 4 — so a reader treats "ingress !=
// egress" or "ingress moved" as a possible concurrent commit.
//
// The monitor also carries a quiesce gate — an Indicator, the same
// abstraction as the paper's fallback-presence indicator — that lets a
// reader that keeps losing the optimistic race briefly hold off new
// update operations so validation is guaranteed to succeed after the
// in-flight operations drain. As with F in the paper, an operation waits
// for the gate in exactly one place, and that place is not the engine:
// whoever closes the gate (the sharding layer) admits every update with
// Enter before calling into the structure, and Thread.Run only publishes
// updates.
type UpdateMonitor struct {
	// nin/nout bracket updates: nin is incremented when an update
	// starts, nout when it completes. nin == nout means none is in
	// flight. Plain atomics, not htm cells: they are never accessed
	// transactionally, and an htm.Word bump would advance the shard's
	// version clock — forcing the shard's concurrent transactions into
	// full read-set validation on every update.
	nin, nout atomic.Uint64
	// gate holds off new update operations while a reader quiesces the
	// shard. Readers Arrive/Depart; updaters wait while it is nonzero.
	gate Indicator
	// quiesces counts completed Quiesce calls (escalated readers),
	// reported as OpStats.Quiesces of the engine it serves.
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

// Bind associates the monitor's quiesce gate with the version clock of
// the TM whose threads admit updates at it. engine.New binds the monitor
// of its Config; a monitor serves exactly one engine (one shard), so it
// joins exactly one clock domain.
func (m *UpdateMonitor) Bind(c *htm.Clock) { m.gate.Bind(c) }

// begin / end bracket an update operation.
func (m *UpdateMonitor) begin() { m.nin.Add(1) }
func (m *UpdateMonitor) end()   { m.nout.Add(1) }

// inFlight reports whether a bracketed update is in flight.
func (m *UpdateMonitor) inFlight() bool {
	return m.nin.Load() != m.nout.Load()
}

// Enter admits an update operation (or a batch group of them): it waits
// out the quiesce gate. The caller must not be inside the structure's
// reclamation bracket (a waiter there would pin an epoch for as long as
// the gate stays closed). Admission is a read: nothing marks the update
// as in flight until Thread.Run opens its bracket (see Quiesce).
func (m *UpdateMonitor) Enter() {
	waitWhile(func() bool { return m.gate.Nonzero(nil) })
}

// MonitorSample is a reader's snapshot of a monitor, taken with Sample
// and checked with Validate.
type MonitorSample struct {
	in uint64 // ingress counter
}

// Sample captures the monitor's state before a read of the shard.
// ok is false when an update is in flight (the read would race its
// commit); the caller should retry.
//
// The read order matters for the validation proof: egress before
// ingress, so an update whose bracket spans the two reads is seen as in
// flight, never as complete.
func (m *UpdateMonitor) Sample() (MonitorSample, bool) {
	out := m.nout.Load()
	in := m.nin.Load()
	if in != out {
		return MonitorSample{}, false
	}
	return MonitorSample{in: in}, true
}

// Validate reports whether the shard's logical content has provably not
// changed since s was taken: no update started (ingress unchanged; s
// itself proved none was in flight).
func (m *UpdateMonitor) Validate(s MonitorSample) bool {
	return m.nin.Load() == s.in
}

// Quiesce arrives on the gate — holding off update operations that have
// not yet been admitted — and waits for in-flight updates to drain. The
// returned function releases the gate.
//
// The finitely many updates admitted before the gate closed can still
// start afterwards, so a Sample/read/Validate loop under Quiesce
// terminates but may retry a bounded number of times.
func (m *UpdateMonitor) Quiesce() (release func()) {
	m.gate.Arrive()
	waitWhile(m.inFlight)
	m.quiesces.Add(1)
	return m.gate.Depart
}

// Quiesces returns the number of completed Quiesce calls.
func (m *UpdateMonitor) Quiesces() uint64 { return m.quiesces.Load() }
