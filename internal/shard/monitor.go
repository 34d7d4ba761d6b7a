package shard

import (
	"runtime"
	"sync/atomic"
)

// monitor publishes the updates a shard handle admits to one shard, so
// that an atomic cross-shard read can tell whether any update committed
// there, or was in flight, during a window of time — and holds the
// shard's quiesce gate, which an escalated read closes to hold new
// updates off.
//
// The handle brackets each update (a point update, or one batch
// segment) with the ingress/egress counters from its admission to the
// return of the inner call, seqlock style, whichever paths the inner
// engine goes on to take: the commit lies inside the bracket. A reader
// treats "ingress != egress" or "ingress moved" as a possible
// concurrent commit (Sample, Validate).
//
// Admission is the bracket's opening: Enter increments ingress and only
// then looks at the gate, and Quiesce closes the gate and only then
// waits for ingress and egress to meet. Go's atomics are sequentially
// consistent, so of an updater and a quiescing reader at least one sees
// the other (Dekker): either the updater sees the gate closed and
// retracts its increment, or the reader sees the increment and waits for
// the update to finish. Once Quiesce returns, nothing can commit on the
// shard through a handle until the gate opens again — the quiesce is
// exact, like the paper's fallback-presence indicator F, which an
// operation checks after announcing itself.
//
// Every field is a plain atomic, not an htm cell: nothing reads them
// transactionally, and a non-transactional write to a cell would tick
// the version clock.
type monitor struct {
	// nin/nout bracket updates: nin is incremented when an update is
	// admitted (and decremented when the increment is retracted at a
	// closed gate), nout when it completes. nin == nout means none is
	// in flight.
	nin, nout atomic.Uint64
	// gate counts the readers holding the shard quiesced; updates are
	// admitted while it is zero.
	gate atomic.Int64
	// quiesces counts completed Quiesce calls (RQStats.Quiesces).
	quiesces atomic.Uint64
}

// Enter admits an update: it opens the update's bracket, waiting while
// the gate is closed. The caller closes the bracket with Exit after the
// update's inner call returns. A retracted increment restores ingress
// exactly, so a sample taken while the gate is held stays valid.
func (m *monitor) Enter() {
	for {
		m.nin.Add(1)
		if m.gate.Load() == 0 {
			return
		}
		m.nin.Add(^uint64(0))
		for i := 0; m.gate.Load() != 0; i++ {
			if i%16 == 15 {
				runtime.Gosched()
			}
		}
	}
}

// Exit closes the bracket Enter opened.
func (m *monitor) Exit() { m.nout.Add(1) }

// inFlight reports whether an admitted update is in flight.
func (m *monitor) inFlight() bool {
	return m.nin.Load() != m.nout.Load()
}

// sample is a reader's snapshot of a monitor, taken with Sample and
// checked with Validate.
type sample struct {
	in uint64 // ingress counter
}

// Sample captures the monitor's state before a read of the shard.
// ok is false when an update is in flight (the read would race its
// commit; an increment about to be retracted at a closed gate reads so
// too); the caller should retry.
//
// The read order matters for the validation proof: egress before
// ingress, so an update whose bracket spans the two reads is seen as in
// flight, never as complete.
func (m *monitor) Sample() (sample, bool) {
	out := m.nout.Load()
	in := m.nin.Load()
	if in != out {
		return sample{}, false
	}
	return sample{in: in}, true
}

// Validate reports whether the shard's logical content has provably not
// changed since s was taken: ingress is where it was, so no update was
// admitted since (s itself proved none was in flight). An increment
// retracted in between leaves it where it was, and ran nothing.
func (m *monitor) Validate(s sample) bool {
	return m.nin.Load() == s.in
}

// Quiesce closes the gate — new updates wait at admission — and waits
// for the updates in flight to drain. When it returns no update is in
// flight on the shard and none can be admitted until the returned
// function releases the gate: a plain read of the shard in between is a
// read of one stable state.
func (m *monitor) Quiesce() (release func()) {
	m.gate.Add(1)
	for i := 0; m.inFlight(); i++ {
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
	m.quiesces.Add(1)
	return m.release
}

func (m *monitor) release() { m.gate.Add(-1) }
