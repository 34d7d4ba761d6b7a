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
// and — on a monitored dictionary — one monitor admission per segment
// instead of per operation. Results are written into ops exactly as the
// per-operation methods would have returned them.
//
// The sorted ops are cut into contiguous per-shard segments. A segment
// is admitted the way a point update is, by routeUpdate on its first
// key, before any of its operations dispatch. A segment admitted before
// an escalated reader closed the gate may still commit behind it, so
// what can fail that reader's gated attempts is at most one segment per
// handle — bounded by the batch size — rather than one op.
func (h *handle) ExecGroup(ops []dict.BatchOp) {
	if len(ops) == 0 {
		return
	}
	d := h.d
	d.batch.GroupOps.Add(uint64(len(ops)))
	for i := 0; i < len(ops); {
		s := h.routeUpdate(ops[i].Key)
		_, hi := d.rt.Bounds(s)
		j := i + 1
		for j < len(ops) && ops[j].Key < hi {
			j++
		}
		target := h.hs[s]
		for k := i; k < j; k++ {
			ops[k].Exec(target)
		}
		d.batch.Groups.Add(1)
		i = j
	}
}
