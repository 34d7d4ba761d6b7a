package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/obs"
)

// Rebalancing defaults.
const (
	// DefaultRebalanceCheckOps is the number of point operations a
	// handle performs between imbalance evaluations.
	DefaultRebalanceCheckOps = 1024
	// DefaultRebalanceRatio is the busiest-shard-to-mean operation ratio
	// that triggers a migration.
	DefaultRebalanceRatio = 1.5
	// rebalanceMoveFraction is the largest fraction of the donor shard's
	// key span handed to its neighbor per migration.
	rebalanceMoveFraction = 0.5
	// rebalanceCooldown is the number of full-window evaluations during
	// which the rebalancer refuses to reverse its previous migration.
	rebalanceCooldown = 8
	// rebalanceSettle is the number of full-window evaluations skipped
	// after every migration, so the next decision is made on a window
	// measured entirely under the new boundary.
	rebalanceSettle = 2
)

// RebalanceConfig enables live key-range rebalancing: per-shard
// operation counters (the engines' OpStats, which the shard layer
// already aggregates) are compared periodically, and when one shard is
// doing disproportionately many operations, a boundary slice of its key
// range migrates to a neighbor shard. The
// migration quiesces exactly the two affected shards via their update
// monitors, moves the keys, and publishes a new routing table, so point
// operations, RangeQuery, KeySum, CheckPartition and RQStats stay
// correct throughout (reads on a rebalancing dictionary always run the
// version-validation loop, as if Config.Atomic were set).
type RebalanceConfig struct {
	// CheckOps is the number of point operations a handle performs
	// between imbalance evaluations (default DefaultRebalanceCheckOps).
	// It is also the operation count the busiest shard must have
	// accumulated since the last evaluation before a migration triggers,
	// so idle dictionaries never migrate on noise.
	CheckOps int
	// Ratio triggers a migration when the busiest shard performed more
	// than Ratio times the per-shard mean of the operations since the
	// last evaluation (default DefaultRebalanceRatio). Values in (0, 1]
	// trigger on any imbalance — useful for forcing migrations in tests.
	Ratio float64
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.CheckOps == 0 {
		c.CheckOps = DefaultRebalanceCheckOps
	}
	if c.Ratio == 0 {
		c.Ratio = DefaultRebalanceRatio
	}
	return c
}

// validate reports the first invalid field, with the offending value.
func (c RebalanceConfig) validate() error {
	if c.CheckOps < 0 {
		return fmt.Errorf("shard: Config.Rebalance.CheckOps = %d (want >= 0; 0 selects the default %d)",
			c.CheckOps, DefaultRebalanceCheckOps)
	}
	if c.Ratio < 0 || math.IsNaN(c.Ratio) {
		return fmt.Errorf("shard: Config.Rebalance.Ratio = %v (want > 0; 0 selects the default %v)",
			c.Ratio, DefaultRebalanceRatio)
	}
	return nil
}

// RebalanceStats counts rebalancer activity. All counters are zero when
// the dictionary was built without Config.Rebalance.
type RebalanceStats struct {
	// Checks counts imbalance evaluations.
	Checks uint64
	// Migrations counts boundary migrations performed.
	Migrations uint64
	// KeysMoved counts keys moved between shards across all migrations.
	KeysMoved uint64
}

// rebalancer holds the mutable state of live key-range rebalancing.
// mu serializes migrations (and is taken by escalated atomic readers,
// so a quiesced read can never be starved by a migration stream);
// handle op paths only TryLock it, so they never block on an evaluation
// already in progress.
type rebalancer struct {
	cfg RebalanceConfig

	mu      sync.Mutex
	lastOps []uint64      // per-shard OpStats totals at the last evaluation
	deltas  []uint64      // evaluation scratch: per-shard ops since last check
	handles []dict.Handle // the migrator's inner handles, one per shard, made with the dictionary
	scratch []dict.KV     // moved-pair buffer, reused across migrations

	// Anti-ping-pong state: the routing-table entry the last migration
	// moved, its direction, and the full-window evaluations left during
	// which reversing that move is blocked. A hot slice handed to a
	// neighbor can make the neighbor the new maximum; without the
	// cooldown the slice would bounce between the two shards on every
	// window.
	lastBoundary int
	lastDir      int
	cooldown     int
	settle       int

	checks     atomic.Uint64
	migrations atomic.Uint64
	keysMoved  atomic.Uint64
}

// RebalanceStats returns a snapshot of the rebalancer counters. Safe to
// call while operations run (the snapshot is then approximate).
func (d *Dict) RebalanceStats() RebalanceStats {
	rb := d.reb
	if rb == nil {
		return RebalanceStats{}
	}
	return RebalanceStats{
		Checks:     rb.checks.Load(),
		Migrations: rb.migrations.Load(),
		KeysMoved:  rb.keysMoved.Load(),
	}
}

// maybeRebalance evaluates shard load and migrates one boundary range
// if the imbalance threshold is crossed. Called from handle point-op
// paths every CheckOps operations; at most one evaluation runs at a
// time and contenders return immediately.
func (d *Dict) maybeRebalance() {
	rb := d.reb
	if rb == nil {
		return
	}
	if !rb.mu.TryLock() {
		return
	}
	defer rb.mu.Unlock()

	// Per-shard operation deltas since the last evaluation, from the
	// engines' own completion counters. The measurement window
	// accumulates across calls until the busiest shard has at least
	// CheckOps in it — resetting on every call would keep the window
	// near one handle's check cadence and starve the trigger when many
	// handles poll concurrently.
	n := len(d.shards)
	minOps := uint64(rb.cfg.CheckOps)
	var total, maxDelta uint64
	for i, s := range d.shards {
		var tot uint64
		if sp, ok := s.(engine.StatsSource); ok {
			tot = sp.OpStats().Total()
		}
		delta := tot - rb.lastOps[i]
		rb.deltas[i] = delta
		total += delta
		if delta > maxDelta {
			maxDelta = delta
		}
	}
	// Judge only full windows: a tiny window's multinomial noise makes
	// max/mean ratios meaningless and would migrate on phantom skew.
	if maxDelta < minOps || total < minOps*uint64(n) {
		return // window still too small to judge: keep accumulating
	}
	rb.checks.Add(1)
	if rb.cooldown > 0 {
		rb.cooldown--
	}
	for i := range rb.lastOps {
		rb.lastOps[i] += rb.deltas[i]
	}
	if rb.settle > 0 {
		rb.settle--
		return // let the previous migration show up in a clean window
	}

	// A boundary move only transfers load between neighbors, so the
	// unit of decision is the adjacent pair: pick the pair with the
	// largest load gap whose heavier side exceeds Ratio times the
	// lighter (and carries enough traffic to judge). Repeated windows
	// cascade a hot head down the chain pair by pair; once every pair
	// is within Ratio, migration stops — even if the global max/mean
	// ratio stays high because single hot keys cannot be split further.
	donor, receiver := -1, -1
	var bestGap uint64
	for i := 0; i+1 < n; i++ {
		heavy, light := i, i+1
		if rb.deltas[heavy] < rb.deltas[light] {
			heavy, light = light, heavy
		}
		dh, dl := rb.deltas[heavy], rb.deltas[light]
		if dh < minOps || float64(dl)*rb.cfg.Ratio > float64(dh) {
			continue // too little traffic, or the pair is already balanced
		}
		if dh-dl < total/uint64(2*n) {
			continue // the gap is immaterial next to the mean shard load
		}
		if gap := dh - dl; gap > bestGap {
			donor, receiver, bestGap = heavy, light, gap
		}
	}
	if donor < 0 {
		return
	}

	// Geometry of the move: the donor sheds a slice of its span on the
	// receiver's side. The last shard's routable tail is open-ended; its
	// span is measured against the configured key span.
	r := d.rt.Load()
	dlo, dhi := r.Bounds(donor)
	effHi := dhi
	if donor == n-1 {
		if r.span <= dlo {
			return // the whole configured span already migrated away
		}
		effHi = r.span
	}
	if effHi <= dlo+1 {
		return // one-key span: nothing left to split
	}

	// Move-size policy: assuming load roughly uniform within the donor's
	// span, handing over a fraction f = (1 - recv/donor)/2 of it would
	// equalize the pair; cap at rebalanceMoveFraction. Hot keys
	// concentrated in the moved slice make the step overshoot, which the
	// cooldown below keeps from turning into a boundary ping-pong.
	f := (1 - float64(rb.deltas[receiver])/float64(rb.deltas[donor])) / 2
	if f > rebalanceMoveFraction {
		f = rebalanceMoveFraction
	}
	moved := uint64(float64(effHi-dlo) * f)
	if moved == 0 {
		moved = 1
	}
	if moved >= effHi-dlo {
		moved = effHi - dlo - 1
	}

	var mlo, mhi uint64 // key range changing owner
	var newR *rangeRouter
	var boundary, dir int
	if receiver == donor-1 {
		// Donate the donor's lower slice: the donor's own bound moves up.
		mlo, mhi = dlo, dlo+moved
		newR = r.withBoundary(donor, mhi)
		boundary, dir = donor, +1
	} else {
		// Donate the donor's upper slice: the receiver's bound moves
		// down. For the last shard the donated slice keeps the open tail.
		mlo, mhi = effHi-moved, dhi
		newR = r.withBoundary(receiver, mlo)
		boundary, dir = receiver, -1
	}
	if rb.cooldown > 0 && boundary == rb.lastBoundary && dir == -rb.lastDir {
		return // would undo the previous migration: wait out the cooldown
	}
	rb.lastBoundary, rb.lastDir = boundary, dir
	rb.cooldown, rb.settle = rebalanceCooldown, rebalanceSettle
	d.migrate(donor, receiver, mlo, mhi, newR)
}

// migrate moves the keys of [mlo, mhi) from donor to receiver and
// publishes newR as the routing table. The protocol (rb.mu held):
//
//  1. Quiesce both shards' update monitors: new updates wait at their
//     admission (handle.routeUpdate) and every admitted one drains, so
//     the migrator has
//     exclusive update access to exactly the two affected shards —
//     all other shards keep running untouched.
//  2. Bracket both monitors for the whole move, so an optimistic
//     cross-shard reader whose window overlaps either shard observes an
//     update in flight and retries until the migration is done.
//  3. Insert every moved pair into the receiver, then swap the routing
//     table, then delete the pairs from the donor — in that order a
//     concurrent point Search (reads are never gated) finds its key
//     whichever table it routed by.
//
// The migrator's own inserts and deletes go straight to the inner
// dictionaries, below the admission point, so the gates step 1 holds do
// not stop them; they publish their commits like any update, so
// validation catches them.
func (d *Dict) migrate(donor, receiver int, mlo, mhi uint64, newR *rangeRouter) {
	rb := d.reb
	hd, hr := rb.handles[donor], rb.handles[receiver]

	releaseD := d.mons[donor].Quiesce()
	defer releaseD()
	releaseR := d.mons[receiver].Quiesce()
	defer releaseR()
	doneD := d.mons[donor].Bracket()
	defer doneD()
	doneR := d.mons[receiver].Bracket()
	defer doneR()
	if d.obsRec != nil {
		d.obsRec.RareEvent(obs.EvMigrateBegin, 0, htm.CauseNone,
			uint64(donor), uint64(receiver))
	}
	// Quiesce-fault seam: both monitors' gates are held — every update
	// on the donor and receiver shards is parked at its admission for
	// the duration of an injected stall.
	d.faults.Hit(fault.PointQuiesce)

	rb.scratch = hd.RangeQuery(mlo, mhi, rb.scratch[:0])
	for _, kv := range rb.scratch {
		hr.Insert(kv.Key, kv.Val)
	}
	// Migration-fault seam: the moved slice exists on both shards and
	// the routing table still sends readers to the donor.
	d.faults.Hit(fault.PointMigrateSwap)
	d.rt.Store(newR)
	// Migration-fault seam: the table now routes to the receiver while
	// the donor still holds the (stale) slice pending deletion.
	d.faults.Hit(fault.PointMigrateDelete)
	for _, kv := range rb.scratch {
		hd.Delete(kv.Key)
	}

	rb.migrations.Add(1)
	rb.keysMoved.Add(uint64(len(rb.scratch)))
	if d.obsRec != nil {
		d.obsRec.RareEvent(obs.EvMigrateEnd, 0, htm.CauseNone,
			uint64(len(rb.scratch)), 0)
	}
}
