package shard

import "htmtree/internal/obs"

// registerObs registers the shard layer's metric families: the
// cross-shard read validation outcomes and the rebalancer's migration
// counters. Like the engine's families they are read closures over the
// counters this layer already maintained for RQStats/RebalanceStats —
// scrapes read the same atomics the stats snapshots do.
func (d *Dict) registerObs(n *obs.Node) {
	n.Counter("htmtree_rq_attempts_total",
		"Atomic cross-shard read snapshot attempts (including each read's successful final attempt).",
		func(emit obs.Point) { emit(float64(d.rqAttempts.Load())) })
	n.Counter("htmtree_rq_pinned_attempts_total",
		"Cross-shard read attempts that ran as pinned transactions instead of sampling and validating monitors.",
		func(emit obs.Point) { emit(float64(d.rqPinned.Load())) })
	n.Counter("htmtree_rq_retries_total",
		"Cross-shard read attempts invalidated by a concurrent update or migration.",
		func(emit obs.Point) { emit(float64(d.rqRetried.Load())) })
	n.Counter("htmtree_rq_escalations_total",
		"Cross-shard reads that exhausted the optimistic budget and quiesced their shards.",
		func(emit obs.Point) { emit(float64(d.rqEscalations.Load())) })
	n.Counter("htmtree_exec_groups_total",
		"Shard groups executed by the batch pipeline (one routing decision and monitor bracket each).",
		func(emit obs.Point) { emit(float64(d.batchGroups.Load())) })
	n.Counter("htmtree_exec_group_ops_total",
		"Point operations executed through shard groups.",
		func(emit obs.Point) { emit(float64(d.batchOps.Load())) })
	n.Counter("htmtree_exec_restarts_total",
		"Shard-group executions restarted because a migration moved the group's keys mid-flight.",
		func(emit obs.Point) { emit(float64(d.batchRestarts.Load())) })
	if rb := d.reb; rb != nil {
		n.Counter("htmtree_rebalance_checks_total",
			"Full-window rebalance imbalance evaluations.",
			func(emit obs.Point) { emit(float64(rb.checks.Load())) })
		n.Counter("htmtree_migrations_total",
			"Completed key-range migrations between neighbor shards.",
			func(emit obs.Point) { emit(float64(rb.migrations.Load())) })
		n.Counter("htmtree_migration_keys_total",
			"Keys moved by completed migrations.",
			func(emit obs.Point) { emit(float64(rb.keysMoved.Load())) })
	}
}
