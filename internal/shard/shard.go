// Package shard implements a horizontally partitioned ordered
// dictionary: the key space is divided among N independent inner
// dictionaries (in this repository, template trees with their own
// engine, HTM context, and fallback indicator — Brown, PODC 2017,
// Sections 5–6) by a pluggable Router. Point operations route to the
// owning shard; range queries fan out to the overlapping shards. Under
// the default contiguous-range router the per-shard results concatenate
// into a globally key-ordered result without a merge step; under the
// hash router every multi-key window reads all shards and merge-sorts.
//
// Sharding is the first scaling lever on top of Brown's template: each
// tree is self-contained, so partitioning multiplies the fallback
// indicators and transactional conflict domains, and update-heavy
// workloads that serialize on one tree's contended paths spread across
// N of them. The Router decides how well that spreading survives key
// skew: a static range split collapses a Zipfian or hot-range workload
// onto one shard, a hash split is skew-oblivious (but loses range
// locality), and Config.Rebalance makes the range split adaptive —
// boundary slices of a hot shard's key range migrate live to neighbor
// shards (see RebalanceConfig).
//
// # Consistency
//
// Point operations are linearizable exactly as the inner dictionaries
// are (each key lives in exactly one shard at every instant; during a
// migration both affected shards' updates are held off, and the routing
// table swaps only while the moved keys are present in both). Each
// shard's range query is atomic in isolation (it runs as a single
// template operation), but a fan-out that spans shards observes each
// shard at a possibly different point in time, so by default a
// cross-shard RangeQuery (and KeySum) may return a state no single
// linearization point ever produced.
//
// Config.Atomic repairs this with the paper's own division of labour: a
// transactional path that is fast and best-effort, in front of a
// software path that guarantees progress, inside one retry/escalate loop
// (Dict.readConsistent).
//
// The transactional path pins a snapshot (handle.pinned). Every shard's
// TM has its own version clock, so no one transaction can span two
// shards the way one hardware transaction would; but a read-only
// transaction begun at a value its TM's clock held earlier sees the
// shard as it was at that moment. The reader enters every overlapping
// shard's reclamation bracket, reads the shards' clocks first to last,
// re-reads all but the last — none having moved proves all the values
// held at the instant the last was read — and runs each shard's query
// once, as a transaction on the algorithm's first path pinned at its
// value (dict.PinnedReader). What fails an attempt is what would abort
// that one spanning transaction: a cell it reaches written since the
// instant, or a software path it may not overlap being busy (TLE's
// locked body, 2-path-ncon's fallback; a 3-path read-only transaction
// runs beside its fallback path, whose operations each become visible at
// one tick of the shard's clock).
//
// The software path is optimistic per-shard version validation, in the
// spirit of the hybrid validation of Ben-David et al. (Lock-Free Locks
// Revisited, 2022): every shard carries an engine.UpdateMonitor whose
// counters updaters advance exactly at operation commit (transactional
// paths bump inside the committing transaction; non-transactional paths
// bracket the operation, seqlock-style). A reader samples the monitors
// of every overlapping shard, reads the shards, and re-validates the
// samples (Dict.validated); since all samples are taken before the
// first shard read and re-checked after the last, an
// unvalidated-change-free window proves every shard was simultaneously
// stable, so the concatenated result equals the state at one instant —
// a consistent cut. It serves what a pinned transaction cannot: KeySum,
// rebalancing dictionaries, inner dictionaries whose algorithm has no
// transactional path a whole read runs on, and a scan too large for a
// transaction.
//
// Readers that keep losing either race escalate after Config.RQRetries
// attempts: they arrive on the shards' quiesce gates (the paper's
// Indicator machinery), which holds new update operations at their
// admission in the shard handle (handle.routeUpdate — the only place an
// update looks at a gate), and finish there on the software path, where
// validation is guaranteed to succeed once the updates in flight drain.
// RQStats reports how often queries retried and escalated, and how many
// attempts were pinned.
//
// A rebalancing dictionary always runs the validation (Config.Atomic
// is implied): the overlapping shard set is recomputed from the live
// routing table on every attempt and the attempt additionally fails if
// the table moved under it, while a migration brackets both affected
// monitors for its whole duration — so no fan-out can observe a
// half-moved range, and a reader holding stale routing can never
// validate. Escalated readers also hold the migration lock, so a
// stream of migrations cannot starve them. (Neither a routing swap nor
// a migration bracket is a write a pinned transaction would see, which
// is why such a dictionary never pins.)
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"htmtree/internal/batch"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/obs"
)

// DefaultShards is the shard count when Config.Shards is zero.
const DefaultShards = 8

// DefaultRQRetries is the optimistic attempt budget before an atomic
// cross-shard read escalates to the quiesce gates.
const DefaultRQRetries = 8

// maxKeySpan is the default partition span: the full legal key space.
const maxKeySpan = dict.MaxKey + 1

// Config describes a sharded dictionary.
type Config struct {
	// Shards is the number of partitions (default DefaultShards, or
	// Router.NumShards() when a Router is supplied).
	Shards int
	// KeySpan is the exclusive upper bound of the client key range the
	// partition is balanced over (default dict.MaxKey+1). Keys at or
	// above KeySpan are still legal: under range routing they route to
	// the last shard, which owns everything from its lower bound upward.
	// Ignored by the hash router.
	KeySpan uint64
	// Router overrides how keys map to shards (default: the contiguous
	// range router NewRangeRouter(Shards, KeySpan), preserving the
	// layer's original routing exactly). Use NewHashRouter for
	// skew-oblivious scattering — at the cost of every multi-key range
	// query visiting all shards.
	Router Router
	// Rebalance enables live key-range rebalancing: boundary slices of a
	// disproportionately busy shard's key range migrate to neighbor
	// shards at runtime. Requires range routing (the default router, or
	// one from NewRangeRouter) and at least two shards; implies the
	// version-validated read protocol of Atomic.
	Rebalance *RebalanceConfig
	// Atomic makes cross-shard RangeQuery, RangeAgg and KeySum atomic:
	// pinned-snapshot transactions where the inner dictionaries support
	// them, per-shard version validation otherwise, quiesce escalation
	// behind both (see the package comment). It requires the New
	// constructor to wire the provided monitor into the inner
	// dictionary's engine (engine.Config.Monitor).
	Atomic bool
	// RQRetries bounds the optimistic attempts — pinned or validated — of
	// an atomic cross-shard read before it escalates to quiescing the
	// overlapping shards (default DefaultRQRetries). Ignored unless
	// Atomic (or Rebalance, which implies it).
	RQRetries int
	// New constructs the inner dictionary for shard i. Each call must
	// return a fresh, independent instance. mon is non-nil exactly when
	// Atomic or Rebalance is set, and must then be installed as the
	// inner engine's Monitor so updates publish their commit points.
	New func(i int, mon *engine.UpdateMonitor) dict.Dict
	// Obs, when non-nil, records the shard layer's quiesce and migration
	// events in a flight-recorder thread of the domain. (The metric
	// families over RQStats, RebalanceStats and the batch counters are
	// registered by the public package.)
	Obs *obs.Node
	// Faults, when non-nil, arms the deterministic fault-injection
	// plane at the shard layer's seams: fault.PointQuiesce fires while
	// a migration (or an escalated atomic read) holds monitor quiesce
	// gates, and fault.PointMigrateSwap / fault.PointMigrateDelete
	// interrupt a migration between its insert / routing-table-swap /
	// donor-delete steps. Inner-dictionary seams are armed through the
	// engine and HTM configs the Config.New constructor builds.
	Faults *fault.Plan
}

// validate resolves the shard count and checks every field, naming the
// failing field and the offending value in the error.
func (cfg Config) validate() (shards int, err error) {
	n := cfg.Shards
	if n == 0 {
		if cfg.Router != nil {
			n = cfg.Router.NumShards()
		} else {
			n = DefaultShards
		}
	}
	if n < 1 {
		return 0, fmt.Errorf("shard: Config.Shards = %d (want >= 1, or 0 for the default %d)",
			cfg.Shards, DefaultShards)
	}
	if cfg.New == nil {
		return 0, fmt.Errorf("shard: Config.New = nil (a per-shard dictionary constructor is required)")
	}
	if cfg.RQRetries < 0 {
		return 0, fmt.Errorf("shard: Config.RQRetries = %d (want >= 0; 0 selects the default %d)",
			cfg.RQRetries, DefaultRQRetries)
	}
	if cfg.Router != nil && cfg.Router.NumShards() != n {
		return 0, fmt.Errorf("shard: Config.Router covers %d shards but Config.Shards = %d",
			cfg.Router.NumShards(), cfg.Shards)
	}
	if cfg.Rebalance != nil {
		if err := cfg.Rebalance.validate(); err != nil {
			return 0, err
		}
		if n < 2 {
			return 0, fmt.Errorf("shard: Config.Rebalance requires at least 2 shards, Config.Shards = %d",
				cfg.Shards)
		}
		if cfg.Router != nil {
			if _, ok := cfg.Router.(*rangeRouter); !ok {
				return 0, fmt.Errorf("shard: Config.Rebalance requires a range router (NewRangeRouter), Config.Router is %T",
					cfg.Router)
			}
		}
	}
	return n, nil
}

// RQStats counts the outcomes of atomic cross-shard reads (RangeQuery,
// RangeAgg and KeySum). All counters are zero when the dictionary was
// built without Config.Atomic or Config.Rebalance.
type RQStats struct {
	// Attempts counts snapshot attempts, pinned or validated, including
	// the successful final attempt of every read.
	Attempts uint64
	// Retries counts attempts invalidated by a concurrent update or
	// migration (or by one in flight at sampling time).
	Retries uint64
	// Escalations counts reads that exhausted the optimistic budget and
	// fell back to holding the shards' quiesce gates.
	Escalations uint64
	// Pinned counts the attempts that ran as pinned transactions rather
	// than sampling and validating the monitors.
	Pinned uint64
}

// routing is the unit the routing-table pointer stores (a Router is an
// interface value, which atomic.Pointer cannot hold directly).
type routing struct {
	r Router
}

// Dict is a sharded ordered dictionary. It implements dict.Dict.
type Dict struct {
	shards []dict.Dict

	// rt is the published routing table. Point operations and fan-outs
	// load it per attempt; rebalancing migrations swap it.
	rt atomic.Pointer[routing]

	// mons holds one update monitor per shard when the dictionary was
	// built with Config.Atomic or Config.Rebalance; nil otherwise.
	mons      []*engine.UpdateMonitor
	rqRetries int

	// reb is the live rebalancer; nil when rebalancing is disabled.
	reb *rebalancer

	// obsRec is the layer's shared flight-recorder thread (quiesce and
	// migration events may come from any goroutine; RareEvent is
	// multi-writer safe). nil unless built with Config.Obs.
	obsRec *obs.ThreadObs

	// faults is the armed fault plan (Config.Faults); nil-safe at every
	// seam.
	faults *fault.Plan

	rqAttempts    atomic.Uint64
	rqRetried     atomic.Uint64
	rqEscalations atomic.Uint64
	rqPinned      atomic.Uint64

	// batch holds the group-execution counters (BatchCounters).
	batch batch.Counters

	// checkHandles are reserved for CheckPartition: handle registration
	// is permanent in the inner trees' engines, so a quiescent checker
	// must reuse one handle per shard rather than register new ones on
	// every call. checkMu serializes checkers (handles must not be used
	// by two goroutines at once, even quiescent ones).
	checkMu      sync.Mutex
	checkHandles []dict.Handle
}

// New builds a sharded dictionary from cfg.
func New(cfg Config) (*Dict, error) {
	n, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	r := cfg.Router
	if r == nil {
		rr, rerr := newUniformRangeRouter(n, cfg.KeySpan)
		if rerr != nil {
			return nil, rerr
		}
		r = rr
	}
	d := &Dict{
		shards:    make([]dict.Dict, n),
		rqRetries: cfg.RQRetries,
		faults:    cfg.Faults,
	}
	d.rt.Store(&routing{r: r})
	if d.rqRetries == 0 {
		d.rqRetries = DefaultRQRetries
	}
	if cfg.Atomic || cfg.Rebalance != nil {
		d.mons = make([]*engine.UpdateMonitor, n)
		for i := range d.mons {
			d.mons[i] = engine.NewUpdateMonitor(nil)
			if cfg.Rebalance != nil {
				// Migrations need Quiesce to mean "no update at all in
				// flight"; plain Atomic dictionaries skip the in-flight
				// accounting that costs.
				d.mons[i].EnableFullDrain()
			}
		}
	}
	if cfg.Rebalance != nil {
		d.reb = &rebalancer{
			cfg:     cfg.Rebalance.withDefaults(),
			lastOps: make([]uint64, n),
			deltas:  make([]uint64, n),
			handles: make([]dict.Handle, n),
		}
	}
	for i := range d.shards {
		var mon *engine.UpdateMonitor
		if d.mons != nil {
			mon = d.mons[i]
		}
		d.shards[i] = cfg.New(i, mon)
		if d.reb != nil {
			d.reb.handles[i] = d.shards[i].NewHandle()
		}
	}
	if cfg.Obs != nil {
		d.obsRec = cfg.Obs.NewThread()
	}
	return d, nil
}

// NumShards returns the number of partitions.
func (d *Dict) NumShards() int { return len(d.shards) }

// Shard returns the inner dictionary serving partition i.
func (d *Dict) Shard(i int) dict.Dict { return d.shards[i] }

// Router returns the current routing table. On a rebalancing dictionary
// the table may be superseded at any time; callers needing a stable
// view across several calls must capture the returned value once.
func (d *Dict) Router() Router { return d.rt.Load().r }

// ShardFor returns the index of the partition currently owning key.
func (d *Dict) ShardFor(key uint64) int { return d.Router().ShardFor(key) }

// Bounds returns the key range [lo, hi) currently owned by partition i;
// under range routing the last partition's hi is ^uint64(0) (it owns
// everything upward), and under hash routing every partition reports
// the full key space.
func (d *Dict) Bounds(i int) (lo, hi uint64) { return d.Router().Bounds(i) }

// NewHandle registers a per-goroutine handle on every shard.
//
// On a monitored dictionary (Config.Atomic or Config.Rebalance) the
// handle is the one place an update is admitted: a point operation
// routes, Enters the target shard's monitor — waiting there, outside any
// inner operation, while a reader or a migration holds the shard's
// quiesce gate — re-checks that the routing table did not move between
// routing and admission, dispatches through the inner handle, and Exits
// (handle.routeUpdate; ExecGroup does the same once per group). On a
// rebalancing dictionary the admission also pins the shard: a migration
// cannot start while the operation is in flight. Without the re-check an
// updater could route to a shard, wait at its gate while a migration
// moves its key away, and then commit into the wrong shard with stale
// routing. Nothing below the handle looks at the gate, so the holder of
// a gate (a migration) updates the shard through ordinary inner handles.
func (d *Dict) NewHandle() dict.Handle {
	hs := make([]dict.Handle, len(d.shards))
	for i, s := range d.shards {
		hs[i] = s.NewHandle()
	}
	h := &handle{d: d, hs: hs}
	if d.mons != nil {
		h.samples = make([]engine.MonitorSample, len(d.shards))
		h.pins, h.rvs = pinnedReaders(hs, d.reb != nil), make([]uint64, len(d.shards))
	}
	if d.reb == nil {
		// The routing table is published once at construction and never
		// swapped (only migrations store to d.rt), so operations through
		// this handle may use a plain cached pointer instead of loading
		// the published one.
		h.router = d.Router()
	}
	return h
}

// pinnedReaders returns the inner handles as pinned readers when a
// fan-out over them may run as pinned transactions (handle.pinned), nil
// when it must sample and validate instead: on a rebalancing dictionary,
// whose routing swaps and migration brackets only the monitors publish,
// and unless every inner handle is pinnable — one shard read some other
// way would not be at the others' instant.
func pinnedReaders(hs []dict.Handle, rebalancing bool) []dict.PinnedReader {
	if rebalancing {
		return nil
	}
	pins := make([]dict.PinnedReader, len(hs))
	for i, ih := range hs {
		pr, ok := ih.(dict.PinnedReader)
		if !ok || !pr.Pinnable() {
			return nil
		}
		pins[i] = pr
	}
	return pins
}

// RQStats returns a snapshot of the atomic cross-shard read counters.
// Safe to call while readers run (the snapshot is then approximate).
func (d *Dict) RQStats() RQStats {
	return RQStats{
		Attempts:    d.rqAttempts.Load(),
		Retries:     d.rqRetried.Load(),
		Escalations: d.rqEscalations.Load(),
		Pinned:      d.rqPinned.Load(),
	}
}

// overlap returns the inclusive shard index range a window [lo, hi)
// fans out to under r: the boundary shards for ordered routers, every
// shard for unordered ones (except single-key windows, which always
// have a unique owner).
func overlap(r Router, lo, hi uint64) (first, last int) {
	if r.Ordered() {
		return r.ShardFor(lo), r.ShardFor(hi - 1)
	}
	if hi-lo == 1 {
		s := r.ShardFor(lo)
		return s, s
	}
	return 0, r.NumShards() - 1
}

// readConsistent drives one atomic cross-shard read over [lo, hi): it
// runs try — one attempt at the read, reporting whether what it left
// behind is a consistent cut — until an attempt succeeds. After
// d.rqRetries failed attempts it escalates: it takes the migration lock
// (when the dictionary rebalances) and arrives on the overlapping
// shards' quiesce gates, so new update operations and migrations wait
// while the finitely many updates already in flight drain, and keeps
// trying; gated tells try that it runs there. What an attempt is, is
// the caller's choice: a pinned snapshot (handle.pinned) or the
// sample/read/validate body (Dict.validated).
func (d *Dict) readConsistent(lo, hi uint64, try func(gated bool) bool) {
	attempt := func(gated bool) bool {
		d.rqAttempts.Add(1)
		if try(gated) {
			return true
		}
		d.rqRetried.Add(1)
		return false
	}
	for n := 0; n < d.rqRetries; n++ {
		if attempt(false) {
			return
		}
	}
	d.rqEscalations.Add(1)
	// Hold the migration lock while escalated: a migration is not an
	// admitted update (it takes the gates, it does not wait at them), so
	// without this a migration stream could keep invalidating a gated
	// reader forever. Rebalance checks only TryLock, so updaters never
	// block on an escalated reader here.
	if rb := d.reb; rb != nil {
		rb.mu.Lock()
		defer rb.mu.Unlock()
	}
	// With migrations excluded the routing table is stable; quiesce the
	// overlapping shards. Quiesce now, release via defer: if try panics
	// (it runs an arbitrary inner dictionary) and the caller recovers,
	// held gates must not leak — they would park every future update
	// forever.
	first, last := overlap(d.Router(), lo, hi)
	for s := first; s <= last; s++ {
		defer d.mons[s].Quiesce()()
		if d.obsRec != nil {
			d.obsRec.RareEvent(obs.EvQuiesce, 0, htm.CauseNone, uint64(s), 0)
		}
	}
	// Quiesce-fault seam: the escalated reader holds every overlapping
	// shard's gate; an injected stall parks those shards' updates.
	d.faults.Hit(fault.PointQuiesce)
	for !attempt(true) {
	}
}

// validated is the software attempt body of an atomic cross-shard read:
// sample the monitor of every shard overlapping [lo, hi), run read — an
// idempotent function reading those shards under the supplied router —
// and re-validate the samples. It reloads the routing table, and fails
// if the table was swapped after the samples were taken, so a migrated
// key range can never be read through stale routing. samples is caller
// scratch with capacity NumShards.
func (d *Dict) validated(lo, hi uint64, samples []engine.MonitorSample, read func(r Router, first, last int)) bool {
	rt := d.rt.Load()
	r := rt.r
	first, last := overlap(r, lo, hi)
	samples = samples[:0]
	for s := first; s <= last; s++ {
		smp, ok := d.mons[s].Sample()
		if !ok {
			return false // an update or migration is mid-flight
		}
		samples = append(samples, smp)
	}
	if d.rt.Load() != rt {
		return false // routing table swapped after sampling
	}
	read(r, first, last)
	for s := first; s <= last; s++ {
		if !d.mons[s].Validate(samples[s-first]) {
			return false
		}
	}
	return true
}

// KeySum returns the sum and count of keys across all shards.
//
// Consistency: with Config.Atomic (or Config.Rebalance) the result is a
// consistent cut — the sum and count of the keys present at one instant
// during the call, as if taken at a single linearization point — and
// KeySum may run concurrently with updates and migrations. Without
// either it inherits the inner dictionaries' quiescent-only contract:
// each shard is summed at a different time, and a shard's walk may
// itself race updaters.
//
// The cut is always sampled and validated, never pinned: dict.Dict's
// KeySum is the paper's quiescent checksum, a plain walk of the whole
// tree outside any transaction, called on the dictionary — there is no
// per-thread handle to run a transaction on, and the walk reads every
// cell of a shard, which no transaction's capacity holds.
func (d *Dict) KeySum() (sum, count uint64) {
	read := func() {
		sum, count = 0, 0
		for _, s := range d.shards {
			ss, sc := s.KeySum()
			sum += ss
			count += sc
		}
	}
	if d.mons == nil {
		read()
		return sum, count
	}
	samples := make([]engine.MonitorSample, 0, len(d.shards))
	d.readConsistent(0, maxKeySpan, func(bool) bool {
		return d.validated(0, maxKeySpan, samples, func(Router, int, int) { read() })
	})
	return sum, count
}

// OpStats sums the inner dictionaries' statistics snapshots (shards
// whose inner dictionary exposes none contribute zero).
func (d *Dict) OpStats() engine.OpStats {
	var agg engine.OpStats
	for _, s := range d.shards {
		if sp, ok := s.(engine.StatsSource); ok {
			agg.Merge(sp.OpStats())
		}
	}
	return agg
}

// CheckPartition verifies the partition invariant: every key stored in
// shard i is routed to shard i by the current routing table. Quiescent
// use only.
func (d *Dict) CheckPartition() error {
	d.checkMu.Lock()
	defer d.checkMu.Unlock()
	if d.checkHandles == nil {
		d.checkHandles = make([]dict.Handle, len(d.shards))
		for i, s := range d.shards {
			d.checkHandles[i] = s.NewHandle()
		}
	}
	r := d.Router()
	for i := range d.shards {
		pairs := d.checkHandles[i].RangeQuery(0, maxKeySpan, nil)
		for _, kv := range pairs {
			if owner := r.ShardFor(kv.Key); owner != i {
				lo, hi := r.Bounds(i)
				return fmt.Errorf("shard %d holds key %d owned by shard %d (bounds [%d,%d))",
					i, kv.Key, owner, lo, hi)
			}
		}
	}
	return nil
}

// handle is a per-goroutine handle spanning all shards.
type handle struct {
	d       *Dict
	hs      []dict.Handle
	samples []engine.MonitorSample // scratch for atomic fan-out validation

	// pins holds the inner handles as pinned readers, and rvs the scratch
	// for one clock snapshot per shard, when atomic fan-outs through this
	// handle may run pinned (see pinnedReaders); pins is nil otherwise.
	pins []dict.PinnedReader
	rvs  []uint64

	// router caches the routing table when the dictionary can never
	// swap it (no rebalancer); nil on a rebalancing dictionary, whose
	// paths must observe table swaps and load the published pointer.
	router Router

	// sinceCheck counts point operations since the last rebalance
	// evaluation this handle triggered (unused unless rebalancing).
	sinceCheck int

	// buckets is group-execution scratch (see execGroupUnordered).
	buckets [][]int
	// rerouted counts the admissions routeUpdate dropped because a
	// migration swapped the routing table under them; ExecGroup reports
	// its groups' share as batch.Stats.Restarts.
	rerouted uint64
}

// Help fans a help attempt across every shard's handle (dict.Helper):
// each shard is an independent engine with its own announcement slot,
// so a dead owner may be parked on any of them. Returns true if any
// shard's announced operation was helped.
func (h *handle) Help() bool {
	helped := false
	for _, ih := range h.hs {
		if hh, ok := ih.(dict.Helper); ok && hh.Help() {
			helped = true
		}
	}
	return helped
}

// curRouter returns the routing table for an operation that is not
// admitted (a read, or an update on an unmonitored dictionary): the
// handle-cached table when the dictionary can never swap it, the
// published pointer otherwise.
func (h *handle) curRouter() Router {
	if h.router != nil {
		return h.router
	}
	return h.d.Router()
}

// routeUpdate routes an update on key: it returns the owning shard and
// the routing table that says so. On a monitored dictionary it also
// admits the update on that shard's monitor, which it returns — the
// caller calls mon.Exit when the operation (or the group of operations
// on shard s it leads) completes — and re-routes if a migration swapped
// the table between routing and admission, so the operation can never
// run against a shard that no longer owns its key. While the admission
// is held no migration can involve shard s, so every key r assigns to s
// stays there. On an unmonitored dictionary mon is nil.
func (h *handle) routeUpdate(key uint64) (s int, r Router, mon *engine.UpdateMonitor) {
	d := h.d
	if d.mons == nil {
		r = h.curRouter()
		return r.ShardFor(key), r, nil
	}
	for {
		rt := d.rt.Load()
		s = rt.r.ShardFor(key)
		mon = d.mons[s]
		mon.Enter()
		if d.rt.Load() == rt {
			return s, rt.r, mon
		}
		mon.Exit() // migrated under us: re-route against the new table
		h.rerouted++
	}
}

// afterPointOp triggers a rebalance evaluation every CheckOps point
// operations on a rebalancing dictionary.
func (h *handle) afterPointOp() {
	rb := h.d.reb
	if rb == nil {
		return
	}
	h.sinceCheck++
	if h.sinceCheck >= rb.cfg.CheckOps {
		h.sinceCheck = 0
		h.d.maybeRebalance()
	}
}

func (h *handle) Insert(key, val uint64) (old uint64, existed bool) {
	s, _, mon := h.routeUpdate(key)
	old, existed = h.hs[s].Insert(key, val)
	if mon != nil {
		mon.Exit()
	}
	h.afterPointOp()
	return old, existed
}

func (h *handle) Delete(key uint64) (old uint64, existed bool) {
	s, _, mon := h.routeUpdate(key)
	old, existed = h.hs[s].Delete(key)
	if mon != nil {
		mon.Exit()
	}
	h.afterPointOp()
	return old, existed
}

// Search routes to the owning shard. On a rebalancing dictionary a hit
// is always linearizable (at the instant the routing table was loaded,
// the routed shard held the authoritative copy, and a migration keeps
// the moved keys present in the donor until after the table swap), but
// a miss could be stale: a migration completing between the table load
// and the shard read may have moved the key to a shard this search
// never visited. A miss therefore revalidates the table and re-routes
// if it changed — searches stay gate-free and pay only one extra
// atomic load on the miss path.
func (h *handle) Search(key uint64) (val uint64, found bool) {
	d := h.d
	if h.router != nil {
		return h.hs[h.router.ShardFor(key)].Search(key)
	}
	for {
		rt := d.rt.Load()
		val, found = h.hs[rt.r.ShardFor(key)].Search(key)
		if found || d.rt.Load() == rt {
			return val, found
		}
		// Miss under a routing change: retry against the new table.
	}
}

// readShards appends the pairs of [lo, hi) from shards first..last to
// out, in key order (see mergeFanout).
func (h *handle) readShards(r Router, first, last int, lo, hi uint64, out []dict.KV) []dict.KV {
	base := len(out)
	for s := first; s <= last; s++ {
		out = h.hs[s].RangeQuery(lo, hi, out)
	}
	mergeFanout(r, first, last, out[base:])
	return out
}

// mergeFanout puts seg — the concatenated range-query outputs of shards
// first..last — in key order: as it stands under an ordered router,
// whose partition is contiguous; merge-sorted under an unordered one,
// where the concatenation interleaves the shards' keys.
func mergeFanout(r Router, first, last int, seg []dict.KV) {
	if !r.Ordered() && last > first {
		sort.Slice(seg, func(i, j int) bool { return seg[i].Key < seg[j].Key })
	}
}

// pinned is the transactional attempt body of an atomic cross-shard
// read, the counterpart of one hardware transaction spanning shards
// first..last. Every shard has its own TM clock, so no one transaction
// can span them; but a read-only transaction begun at a snapshot of a
// shard's clock sees that shard as it was when the clock held that
// value, however much later it runs. So the attempt (1) enters every
// shard's reclamation bracket, which must hold from before a snapshot is
// read for the nodes reachable at it to outlive the reads; (2) reads
// each shard's clock, first to last, into h.rvs; (3) re-reads all but
// the last and fails if one moved — clocks only advance, so none having
// moved means that at the moment the last clock was read every clock
// held its recorded value: the snapshots describe one instant; and
// (4) calls read, which runs each shard's query once as a transaction
// pinned at its snapshot (dict.PinnedReader) and reports the first
// status that is not PinCommitted. Updates become visible in their
// shard's clock order, so what the pinned queries return together is
// the dictionary's content at that instant — and what makes one abort
// is a cell it reaches having been written since, not any update
// anywhere in its shard.
func (h *handle) pinned(first, last int, read func(first, last int) dict.PinStatus) dict.PinStatus {
	for s := first; s <= last; s++ {
		h.pins[s].PinEnter()
	}
	defer h.pinExit(first, last)
	for s := first; s <= last; s++ {
		h.rvs[s] = h.pins[s].PinClock()
	}
	for s := first; s < last; s++ {
		if h.pins[s].PinClock() != h.rvs[s] {
			return dict.PinAborted
		}
	}
	return read(first, last)
}

func (h *handle) pinExit(first, last int) {
	for s := first; s <= last; s++ {
		h.pins[s].PinExit()
	}
}

// readAtomic runs one atomic cross-shard read of [lo, hi) through the
// retry/escalate loop. While the handle supports it the attempts are
// pinned transactions (pinned, running pin); otherwise, and from the
// moment pinning cannot serve this read, they sample, run read and
// validate (Dict.validated). Pinning stops serving a read in two ways.
// A shard's query does not fit a transaction (PinUnfit): retrying would
// burn the budget on aborts that cannot succeed. Or an attempt fails
// under the quiesce gates: there the read must terminate, which the
// software body does once the in-flight updates drain, while a
// best-effort transaction promises nothing (the paper's division of
// labour between the HTM path and the path that guarantees progress).
func (h *handle) readAtomic(lo, hi uint64, pin func(first, last int) dict.PinStatus, read func(r Router, first, last int)) {
	d := h.d
	pinning := h.pins != nil
	var first, last int
	if pinning {
		first, last = overlap(h.router, lo, hi) // pinning implies a static table
	}
	d.readConsistent(lo, hi, func(gated bool) bool {
		if !pinning {
			return d.validated(lo, hi, h.samples[:0], read)
		}
		d.rqPinned.Add(1)
		st := h.pinned(first, last, pin)
		pinning = st != dict.PinUnfit && !gated
		return st == dict.PinCommitted
	})
}

// RangeQuery fans out to the shards overlapping [lo, hi). Under range
// routing each shard filters to its own keys and the partition is
// contiguous, so handing every shard the full interval and
// concatenating in partition order preserves global ascending key
// order; under hash routing all shards are read and the results
// merge-sorted. With Config.Atomic (or Config.Rebalance) a fan-out is
// additionally run through readAtomic, making the result a consistent
// cut; on a non-rebalancing dictionary a window inside a single shard is
// atomic either way and skips it (with rebalancing even single-shard
// windows validate, because a concurrent migration may be moving the
// window's keys between shards).
func (h *handle) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	if hi <= lo {
		return out
	}
	d := h.d
	if d.mons == nil {
		r := h.curRouter()
		first, last := overlap(r, lo, hi)
		return h.readShards(r, first, last, lo, hi, out)
	}
	if d.reb == nil {
		r := h.curRouter()
		if first, last := overlap(r, lo, hi); first == last {
			return h.readShards(r, first, last, lo, hi, out)
		}
	}
	base := len(out)
	h.readAtomic(lo, hi, func(first, last int) dict.PinStatus {
		out = out[:base]
		for s := first; s <= last; s++ {
			var st dict.PinStatus
			if out, st = h.pins[s].RangeQueryAt(h.rvs[s], lo, hi, out); st != dict.PinCommitted {
				return st
			}
		}
		mergeFanout(h.router, first, last, out[base:])
		return dict.PinCommitted
	}, func(r Router, first, last int) {
		out = out[:base]
		out = h.readShards(r, first, last, lo, hi, out)
	})
	return out
}
