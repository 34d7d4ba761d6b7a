package shard

import (
	"htmtree/internal/batch"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
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
// A segment is admitted the way a point update is, by routeUpdate on its
// first key: the shard's monitor is Entered and the routing table
// re-checked before any of its operations dispatch, and the admission
// (which on a rebalancing dictionary pins the shard against migration)
// is held for the whole segment — so a migration, like an escalated
// reader, waits for at most one batch segment, bounded by the batch
// size, rather than one op.
func (h *handle) ExecGroup(ops []dict.BatchOp) {
	if len(ops) == 0 {
		return
	}
	d := h.d
	d.batch.GroupOps.Add(uint64(len(ops)))

	rerouted := h.rerouted
	if r := h.curRouter(); !r.Ordered() {
		h.execGroupUnordered(r, ops)
	} else {
		h.execGroupOrdered(ops)
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

// execGroupUnordered buckets ops by owner under a hash router — which
// cannot bound a sorted run's owner set, so routing stays per-op — and
// executes each bucket under one admission. Hash routers never
// rebalance (Config.validate rejects the combination), so the table r
// the buckets were filled under is the one routeUpdate admits under.
func (h *handle) execGroupUnordered(r Router, ops []dict.BatchOp) {
	d := h.d
	if h.buckets == nil {
		h.buckets = make([][]int, len(d.shards))
	}
	for s := range h.buckets {
		h.buckets[s] = h.buckets[s][:0]
	}
	for i := range ops {
		s := r.ShardFor(ops[i].Key)
		h.buckets[s] = append(h.buckets[s], i)
	}
	d.batch.RouterLookups.Add(uint64(len(ops)))
	for _, idx := range h.buckets {
		if len(idx) == 0 {
			continue
		}
		s, _, mon := h.routeUpdate(ops[idx[0]].Key)
		target := h.hs[s]
		for _, i := range idx {
			ops[i].Exec(target)
		}
		h.endGroup(mon)
	}
}

// execGroupOrdered cuts the sorted ops into contiguous per-shard runs
// under the (possibly live) range routing table and executes each run
// under one admission. Every run is routed afresh, so a run that starts
// after a migration is cut by the new table; one already admitted cannot
// be overtaken by a migration of its shard.
func (h *handle) execGroupOrdered(ops []dict.BatchOp) {
	for i := 0; i < len(ops); {
		s, r, mon := h.routeUpdate(ops[i].Key)
		_, hi := r.Bounds(s)
		h.d.batch.RouterLookups.Add(1)
		j := i + 1
		for j < len(ops) && ops[j].Key < hi {
			j++
		}
		target := h.hs[s]
		for k := i; k < j; k++ {
			ops[k].Exec(target)
		}
		h.endGroup(mon)
		i = j
	}
}

// endGroup ends the admission routeUpdate returned for a group and
// counts the group.
func (h *handle) endGroup(mon *engine.UpdateMonitor) {
	if mon != nil {
		mon.Exit()
		h.d.batch.MonitorBrackets.Add(1)
	}
	h.d.batch.Groups.Add(1)
}
