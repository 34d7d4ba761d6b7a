package htmtree

import (
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/obs"
	"htmtree/internal/shard"
)

// Stats is a snapshot of a tree's execution statistics: how many
// operations completed on each path (Section 7.2 of the paper) and how
// transactions committed/aborted (Figure 16). Every counter in it is
// also a metric family of the tree's observability domain (families).
type Stats struct {
	// Ops counts operation completions per path.
	Ops PathCounts
	// TxCommits and TxAborts count transaction outcomes per path.
	TxCommits, TxAborts PathCounts
	// TxExtensions counts, per path, the reads of a cell newer than
	// their transaction's snapshot that moved the snapshot forward
	// instead of aborting the transaction.
	TxExtensions PathCounts
	// AbortCauses breaks aborts down as "path/cause" -> count (nonzero
	// entries only); TxAborts is its sum over causes.
	AbortCauses map[string]uint64
	// Policy reports the attempt loops' retry actions: backoffs before
	// conflict retries, budget-free retries after spurious aborts, paths
	// abandoned on a capacity abort, and operations demoted past the fast
	// path by their site's capacity memory.
	Policy PolicyStats
	// FallbackAcquisitions counts TLE lock acquisitions (zero on the
	// algorithms whose fallback is lock-free).
	FallbackAcquisitions uint64
	// Reclaim reports where removed nodes are: in limbo behind a grace
	// period, or pooled for reuse on the handles' free lists. Gauges,
	// summed over the shards; all zero on structures that do not pool
	// nodes (Citrus, the k-CAS list, Hybrid NOrec).
	Reclaim ReclaimStats
	// Range reports atomic cross-shard read outcomes; all zero unless
	// the tree is sharded with AtomicRangeQueries.
	Range RangeQueryStats
	// Batch reports batched/asynchronous execution activity; all zero
	// until an AsyncHandle (or Handle.Batch context) flushes.
	Batch BatchStats
}

// Stats returns a snapshot of the tree's statistics. Safe to call while
// operations run (the snapshot is then approximate).
func (t *Tree) Stats() Stats {
	s := statsOf(t.stats.OpStats())
	s.Batch = t.batchCtrs.Snapshot()
	if sd, ok := t.d.(*shard.Dict); ok {
		s.Range = sd.RQStats()
	}
	return s
}

// statsOf is the part of Stats the snapshot below the shard layer
// answers: everything but Range and Batch.
func statsOf(o engine.OpStats) Stats {
	s := Stats{
		Ops:                  o.PathCounts,
		TxCommits:            perPath(func(p htm.PathKind) uint64 { return o.Commits[p] }),
		TxAborts:             perPath(o.TotalAborts),
		TxExtensions:         perPath(func(p htm.PathKind) uint64 { return o.Extensions[p] }),
		AbortCauses:          make(map[string]uint64),
		Policy:               o.Policy,
		FallbackAcquisitions: o.FallbackAcquisitions,
		Reclaim:              o.Reclaim,
	}
	for _, p := range paths {
		for _, c := range causes {
			if n := o.Aborts[p][c]; n > 0 {
				s.AbortCauses[p.String()+"/"+c.String()] = n
			}
		}
	}
	return s
}

var (
	paths  = [...]htm.PathKind{htm.PathFast, htm.PathMiddle, htm.PathFallback}
	causes = [...]htm.AbortCause{htm.CauseExplicit, htm.CauseConflict, htm.CauseCapacity, htm.CauseSpurious}
)

func perPath(f func(htm.PathKind) uint64) PathCounts {
	return PathCounts{Fast: f(htm.PathFast), Middle: f(htm.PathMiddle), Fallback: f(htm.PathFallback)}
}

// emitFn emits one point of a family: its value and one label value per
// label key of the family, in order.
type emitFn = func(n uint64, values ...string)

// family is one metric family of a tree's observability domain.
type family struct {
	name, help string
	gauge      bool
	// inner marks the counters kept below the shard layer (statsOf): the
	// family is registered once per inner tree, under shard="i" on a
	// sharded tree. The others are registered once, on the tree's node.
	inner  bool
	labels []string
	read   func(s *Stats, emit emitFn)
}

// families is the one list of the metric families a tree registers:
// adding a counter to Stats means adding its row here, and
// TestEveryStatsCounterHasAFamily fails by name until it is. Every row
// reads a Stats snapshot, so a scrape and Stats cannot disagree.
var families = []family{
	{name: "htmtree_ops_total", help: "Operations completed, by execution path.",
		inner: true, labels: []string{"path"},
		read: func(s *Stats, emit emitFn) { emitPaths(s.Ops, emit) }},
	{name: "htmtree_tx_commits_total", help: "Committed transactional attempts, by execution path, as the TM counts them (under scx-htm that includes the standalone SCX transactions).",
		inner: true, labels: []string{"path"},
		read: func(s *Stats, emit emitFn) { emitPaths(s.TxCommits, emit) }},
	{name: "htmtree_tx_aborts_total", help: "Failed transactional attempts, by execution path and abort cause, as the TM counts them (under scx-htm that includes the standalone SCX transactions' aborts).",
		inner: true, labels: []string{"path", "cause"},
		read: func(s *Stats, emit emitFn) {
			for _, p := range paths {
				for _, c := range causes {
					emit(s.AbortCauses[p.String()+"/"+c.String()], p.String(), c.String())
				}
			}
		}},
	{name: "htmtree_tx_extensions_total", help: "Transactional reads of a cell newer than the transaction's snapshot that extended the snapshot instead of aborting, by execution path.",
		inner: true, labels: []string{"path"},
		read: func(s *Stats, emit emitFn) { emitPaths(s.TxExtensions, emit) }},
	{name: "htmtree_policy_actions_total", help: "Retry-policy actions taken after failed attempts, by action.",
		inner: true, labels: []string{"action"},
		read: func(s *Stats, emit emitFn) {
			emit(s.Policy.Backoffs, "backoff")
			emit(s.Policy.FreeRetries, "free_retry")
			emit(s.Policy.CapacitySkips, "capacity_skip")
			emit(s.Policy.Demotions, "demotion")
		}},
	{name: "htmtree_fallback_acquisitions_total", help: "TLE global lock acquisitions: the fallback critical sections of the tle algorithm.",
		inner: true, read: func(s *Stats, emit emitFn) { emit(s.FallbackAcquisitions) }},
	{name: "htmtree_reclaim_nodes", help: "Removed nodes not back in the tree: waiting out a grace period (limbo), or pooled for reuse on the handles' leaf and inner free lists.",
		gauge: true, inner: true, labels: []string{"state"},
		read: func(s *Stats, emit emitFn) {
			emit(s.Reclaim.Limbo, "limbo")
			emit(s.Reclaim.PooledLeaf, "pooled_leaf")
			emit(s.Reclaim.PooledInner, "pooled_inner")
		}},

	{name: "htmtree_rq_attempts_total", help: "Atomic cross-shard read snapshot attempts (including each read's successful final attempt).",
		read: func(s *Stats, emit emitFn) { emit(s.Range.Attempts) }},
	{name: "htmtree_rq_pinned_attempts_total", help: "Cross-shard read attempts that ran as pinned transactions instead of sampling and validating monitors.",
		read: func(s *Stats, emit emitFn) { emit(s.Range.Pinned) }},
	{name: "htmtree_rq_retries_total", help: "Cross-shard read attempts invalidated by a concurrent update.",
		read: func(s *Stats, emit emitFn) { emit(s.Range.Retries) }},
	{name: "htmtree_rq_escalations_total", help: "Cross-shard reads that exhausted the optimistic budget and quiesced their shards.",
		read: func(s *Stats, emit emitFn) { emit(s.Range.Escalations) }},
	{name: "htmtree_monitor_quiesces_total", help: "Shard quiesce gates closed by escalated consistent reads (one per shard an escalated read spans).",
		read: func(s *Stats, emit emitFn) { emit(s.Range.Quiesces) }},
	{name: "htmtree_batch_flushes_total", help: "Non-empty batch buffer flushes across the tree's asynchronous handles.",
		read: func(s *Stats, emit emitFn) { emit(s.Batch.Flushes) }},
	{name: "htmtree_batch_flushed_ops_total", help: "Point operations carried by batch flushes.",
		read: func(s *Stats, emit emitFn) { emit(s.Batch.BatchedOps) }},
	{name: "htmtree_batch_flush_triggers_total", help: "Batch flushes by trigger: the BatchMaxOps threshold, an explicit Flush or Wait, or a flushing RangeQuery.",
		labels: []string{"trigger"},
		read: func(s *Stats, emit emitFn) {
			emit(s.Batch.SizeFlushes, "size")
			emit(s.Batch.ExplicitFlushes, "explicit")
			emit(s.Batch.RangeFlushes, "range")
		}},
	{name: "htmtree_exec_groups_total", help: "Shard groups executed by the batch pipeline (one routing decision each, and one monitor admission each on a tree with atomic range queries).",
		read: func(s *Stats, emit emitFn) { emit(s.Batch.Groups) }},
	{name: "htmtree_exec_group_ops_total", help: "Point operations executed through shard groups.",
		read: func(s *Stats, emit emitFn) { emit(s.Batch.GroupOps) }},
}

func emitPaths(p PathCounts, emit emitFn) {
	emit(p.Fast, htm.PathFast.String())
	emit(p.Middle, htm.PathMiddle.String())
	emit(p.Fallback, htm.PathFallback.String())
}

// register registers on n every family whose inner flag equals inner,
// each reading the snapshot read returns at scrape time.
func register(n *obs.Node, inner bool, read func() Stats) {
	for _, f := range families {
		if f.inner != inner {
			continue
		}
		collect := func(emit obs.Point) {
			s := read()
			f.read(&s, func(v uint64, values ...string) {
				ls := make([]obs.Label, len(values))
				for i, val := range values {
					ls[i] = obs.L(f.labels[i], val)
				}
				emit(float64(v), ls...)
			})
		}
		if f.gauge {
			n.Gauge(f.name, f.help, collect)
		} else {
			n.Counter(f.name, f.help, collect)
		}
	}
}
