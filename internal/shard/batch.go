package shard

import (
	"htmtree/internal/batch"
	"htmtree/internal/dict"
)

// BatchCounters returns the counters group execution counts into (the
// group half of batch.Stats). Pipelines over the dictionary's handles
// count their flushes there too (batch.Config.Counters), so one Snapshot
// holds both halves.
func (d *Dict) BatchCounters() *batch.Counters { return &d.batch }

// ExecGroup implements dict.GroupExecutor: it executes a key-sorted
// group of point operations with one routing decision per shard segment
// and — on a monitored dictionary — one bracket per segment instead of
// one per operation. Results are written into ops exactly as the
// per-operation methods would have returned them.
//
// The sorted ops are cut into contiguous per-shard segments, and each
// segment is one bracketed update (execSegment): admitted the way a
// point update is, by routeUpdate on its first key, before any of its
// operations dispatch, and published until the last returns. Admission
// is exact for a segment as for a point update, so an escalated reader
// that closed the gate reads nothing a segment did after it.
func (h *handle) ExecGroup(ops []dict.BatchOp) {
	h.d.batch.GroupOps.Add(uint64(len(ops)))
	for len(ops) > 0 {
		ops = ops[h.execSegment(ops):]
	}
}

// execSegment executes the leading run of ops that one shard owns, in
// one bracket, and returns its length.
func (h *handle) execSegment(ops []dict.BatchOp) int {
	d := h.d
	s, m := h.routeUpdate(ops[0].Key)
	if m != nil {
		defer m.Exit()
	}
	_, hi := d.rt.Bounds(s)
	n := 1
	for n < len(ops) && ops[n].Key < hi {
		n++
	}
	target := h.hs[s]
	for i := range ops[:n] {
		ops[i].Exec(target)
	}
	d.batch.Groups.Add(1)
	return n
}
