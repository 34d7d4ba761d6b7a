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
// The sorted ops are cut into contiguous per-shard segments under the
// (possibly live) routing table. A segment is admitted the way a point
// update is, by routeUpdate on its first key: the shard's monitor is
// Entered and the routing table re-checked before any of its operations
// dispatch, and the admission (which on a rebalancing dictionary pins
// the shard against migration) is held for the whole segment — so a
// migration, like an escalated reader, waits for at most one batch
// segment, bounded by the batch size, rather than one op. Every segment
// is routed afresh, so one that starts after a migration is cut by the
// new table.
func (h *handle) ExecGroup(ops []dict.BatchOp) {
	if len(ops) == 0 {
		return
	}
	d := h.d
	d.batch.GroupOps.Add(uint64(len(ops)))

	rerouted := h.rerouted
	for i := 0; i < len(ops); {
		s, r, mon := h.routeUpdate(ops[i].Key)
		_, hi := r.Bounds(s)
		j := i + 1
		for j < len(ops) && ops[j].Key < hi {
			j++
		}
		target := h.hs[s]
		for k := i; k < j; k++ {
			ops[k].Exec(target)
		}
		if mon != nil {
			mon.Exit()
			d.batch.MonitorBrackets.Add(1)
		}
		d.batch.Groups.Add(1)
		i = j
	}
	if n := h.rerouted - rerouted; n != 0 {
		d.batch.Restarts.Add(n)
	}

	// Batched operations count toward the rebalancer's evaluation
	// cadence exactly like unbatched ones, so a purely batched workload
	// still triggers migrations.
	if rb := d.reb; rb != nil {
		h.sinceCheck += len(ops)
		if h.sinceCheck >= rb.cfg.CheckOps {
			h.sinceCheck = 0
			d.maybeRebalance()
		}
	}
}
