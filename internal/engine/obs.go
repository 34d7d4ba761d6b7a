package engine

import (
	"htmtree/internal/htm"
	"htmtree/internal/obs"
)

// This file attaches an engine to the live observability layer. The
// metric families read the per-thread atomic counters Stats() sums —
// ops per path, aborts per path and cause, the retry actions, fallback
// acquisitions, and the reclamation domain's gauges — so the counters
// the hot path was already maintaining are the metric store: a scrape
// sums them on the scraper's goroutine, and the operation threads pay
// nothing beyond what the OpStats plumbing already cost.

// registerObs registers the engine's metric families on the node (one
// node per engine — the shard layer labels it with the shard index).
// Every family is a projection of one Stats snapshot, so a scrape and
// Stats cannot disagree about what a counter sums.
func (e *Engine) registerObs(n *obs.Node) {
	n.Counter("htmtree_ops_total",
		"Operations completed, by execution path.",
		func(emit obs.Point) {
			s := e.Stats()
			emit(float64(s.Fast), obs.L("path", htm.PathFast.String()))
			emit(float64(s.Middle), obs.L("path", htm.PathMiddle.String()))
			emit(float64(s.Fallback), obs.L("path", htm.PathFallback.String()))
		})
	n.Counter("htmtree_tx_aborts_total",
		"Failed transactional attempts, by execution path and abort cause, as the TM counts them (under scx-htm that includes the standalone SCX transactions' aborts).",
		func(emit obs.Point) {
			per := e.Stats().Aborts
			for p := 1; p < htm.NumPaths; p++ {
				for c := 1; c < htm.NumCauses; c++ { // CauseNone never aborts
					emit(float64(per[p][c]),
						obs.L("path", htm.PathKind(p).String()),
						obs.L("cause", htm.AbortCause(c).String()))
				}
			}
		})
	n.Counter("htmtree_policy_actions_total",
		"Retry-policy actions taken after failed attempts, by action.",
		func(emit obs.Point) {
			s := e.Stats().Policy
			emit(float64(s.Backoffs), obs.L("action", "backoff"))
			emit(float64(s.FreeRetries), obs.L("action", "free_retry"))
			emit(float64(s.CapacitySkips), obs.L("action", "capacity_skip"))
			emit(float64(s.Demotions), obs.L("action", "demotion"))
			emit(float64(s.Helps), obs.L("action", "help"))
		})
	n.Counter("htmtree_fallback_acquisitions_total",
		"Fallback critical-section acquisitions (classic TLE lock takes plus helpable descriptors completed by their owner).",
		func(emit obs.Point) { emit(float64(e.Stats().FallbackAcquisitions)) })
	n.Gauge("htmtree_reclaim_nodes",
		"Removed nodes not back in the tree: waiting out a grace period (limbo), or pooled for reuse on the handles' immediate, grace and inner free lists.",
		func(emit obs.Point) {
			s := e.Stats().Reclaim
			emit(float64(s.Limbo), obs.L("state", "limbo"))
			emit(float64(s.PooledImmediate), obs.L("state", "pooled_immediate"))
			emit(float64(s.PooledGrace), obs.L("state", "pooled_grace"))
			emit(float64(s.PooledInner), obs.L("state", "pooled_inner"))
		})
	if mon := e.cfg.Monitor; mon != nil {
		n.Counter("htmtree_monitor_quiesces_total",
			"Completed update-monitor quiesces (escalated consistent reads and shard migrations).",
			func(emit obs.Point) { emit(float64(mon.Quiesces())) })
	}
}
