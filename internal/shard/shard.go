// Package shard implements a horizontally partitioned ordered
// dictionary: the key space is divided among N independent inner
// dictionaries (in this repository, template trees with their own
// engine, HTM context, and fallback indicator — Brown, PODC 2017,
// Sections 5–6) in contiguous key ranges, ascending in the shard index.
// Point operations route to the owning shard; range queries fan out to
// the overlapping shards, whose per-shard results concatenate into a
// globally key-ordered result without a merge step.
//
// Sharding is the first scaling lever on top of Brown's template: each
// tree is self-contained, so partitioning multiplies the fallback
// indicators and transactional conflict domains, and update-heavy
// workloads that serialize on one tree's contended paths spread across
// N of them. The split is uniform over Config.KeySpan and fixed when the
// dictionary is built, so a Zipfian or hot-range workload lands on the
// shards owning the hot keys.
//
// # Consistency
//
// Point operations are linearizable exactly as the inner dictionaries
// are (each key lives in exactly one shard, for the dictionary's
// lifetime). Each shard's range query is atomic in isolation (it runs as
// a single template operation), but a fan-out that spans shards observes
// each shard at a possibly different point in time, so by default a
// cross-shard RangeQuery (and KeySum) may return a state no single
// linearization point ever produced.
//
// Config.Atomic repairs this with the paper's own division of labour: a
// transactional path that is fast and best-effort, in front of a
// software path that guarantees progress, inside one retry/escalate loop
// (Dict.readConsistent).
//
// The transactional path pins a snapshot (handle.pinned). Every shard has
// its own TM, so no one transaction can span two shards the way one
// hardware transaction would; but all TMs share one version clock
// (htm.Clock), and a read-only transaction begun at a value the clock
// held earlier sees its shard as it was at that moment. The reader
// enters every overlapping shard's reclamation bracket, takes one fresh
// clock value (htm.Pin), and runs each shard's query once, as a
// transaction on the algorithm's first path pinned at that value
// (dict.PinnedReader). What fails an attempt is what would abort that
// one spanning transaction: a cell it reaches written since the instant,
// or a software path it may not overlap being busy (TLE's locked body,
// 2-path-ncon's fallback; a 3-path read-only transaction runs beside its
// fallback path, whose operations each become visible at one tick of the
// clock).
//
// The software path is optimistic per-shard version validation, in the
// spirit of the hybrid validation of Ben-David et al. (Lock-Free Locks
// Revisited, 2022): every shard carries a monitor whose ingress/egress
// counters bracket every update a handle admits to it, seqlock-style,
// from its admission to the return of its inner call, whichever path
// commits it (handle.routeUpdate). A reader samples the monitors
// of every overlapping shard, reads the shards, and re-validates the
// samples (Dict.validated); since all samples are taken before the
// first shard read and re-checked after the last, an
// unvalidated-change-free window proves every shard was simultaneously
// stable, so the concatenated result equals the state at one instant —
// a consistent cut. It serves what a pinned transaction cannot: KeySum,
// inner dictionaries whose algorithm has no transactional path a whole
// read runs on, and a scan too large for a transaction.
//
// Readers that keep losing either race escalate after DefaultRQRetries
// attempts: they close the shards' quiesce gates — plain counters, like
// the paper's fallback-presence indicator F — and wait for the updates
// in flight to drain. An update opens its bracket before it looks at the
// gate, so the quiesce is exact: from then on nothing commits on those
// shards, and the escalated read is one plain read of them, with nothing
// to validate and nothing to retry. RQStats reports how often queries
// retried and escalated, how many attempts were pinned, and how many
// gates were closed.
//
// Updates are published and admitted only by the handles of this
// package: an update made through an inner dictionary's own handle
// bypasses both, and a consistent read does not see it coming.
package shard

import (
	"fmt"
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

// DefaultRQRetries is the optimistic attempt budget — pinned or
// validated attempts — before an atomic cross-shard read escalates to
// quiescing the overlapping shards.
const DefaultRQRetries = 8

// maxKeySpan is the default partition span: the full legal key space.
const maxKeySpan = dict.MaxKey + 1

// Config describes a sharded dictionary.
type Config struct {
	// Shards is the number of partitions (default DefaultShards).
	Shards int
	// KeySpan is the exclusive upper bound of the client key range the
	// partition is balanced over (default dict.MaxKey+1): shard i owns
	// [i*w, (i+1)*w) for the width w = ⌈KeySpan/Shards⌉, fixed for the
	// dictionary's lifetime. Keys at or above KeySpan are still legal:
	// they route to the last shard, which owns everything from its lower
	// bound upward.
	KeySpan uint64
	// Atomic makes cross-shard RangeQuery, RangeAgg and KeySum atomic:
	// pinned-snapshot transactions where the inner dictionaries support
	// them, per-shard version validation otherwise, quiesce escalation
	// behind both (see the package comment). The handles publish and
	// admit the updates themselves; the inner dictionaries need nothing.
	Atomic bool
	// New constructs the inner dictionary for shard i. Each call must
	// return a fresh, independent instance.
	New func(i int) dict.Dict
	// Obs, when non-nil, records the shard layer's quiesce events in a
	// flight-recorder thread of the domain. (The metric families over
	// RQStats and the batch counters are registered by the public
	// package.)
	Obs *obs.Node
	// Faults, when non-nil, arms the deterministic fault-injection
	// plane at the shard layer's one seam: fault.PointQuiesce fires
	// while an escalated atomic read holds the monitor quiesce gates of
	// the shards it reads. Inner-dictionary seams are armed through the
	// engine and HTM configs the Config.New constructor builds.
	Faults *fault.Plan
}

// validate resolves the shard count and checks every field, naming the
// failing field and the offending value in the error.
func (cfg Config) validate() (shards int, err error) {
	n := cfg.Shards
	if n == 0 {
		n = DefaultShards
	}
	if n < 1 {
		return 0, fmt.Errorf("shard: Config.Shards = %d (want >= 1, or 0 for the default %d)",
			cfg.Shards, DefaultShards)
	}
	if cfg.New == nil {
		return 0, fmt.Errorf("shard: Config.New = nil (a per-shard dictionary constructor is required)")
	}
	return n, nil
}

// RQStats counts the outcomes of atomic cross-shard reads (RangeQuery,
// RangeAgg and KeySum). All counters are zero when the dictionary was
// built without Config.Atomic.
type RQStats struct {
	// Attempts counts snapshot attempts, pinned or validated, including
	// the successful final attempt of every read.
	Attempts uint64
	// Retries counts attempts invalidated by a concurrent update (or by
	// one in flight at sampling time).
	Retries uint64
	// Escalations counts reads that exhausted the optimistic budget and
	// fell back to holding the shards' quiesce gates, where each makes
	// exactly one more attempt: a plain read.
	Escalations uint64
	// Pinned counts the attempts that ran as pinned transactions rather
	// than sampling and validating the monitors.
	Pinned uint64
	// Quiesces counts the shard quiesce gates escalated reads closed:
	// one per shard an escalated read spans.
	Quiesces uint64
}

// Dict is a sharded ordered dictionary. It implements dict.Dict.
type Dict struct {
	shards []dict.Dict

	// rt is the routing table, fixed at construction.
	rt rangeRouter

	// mons holds one update monitor per shard when the dictionary was
	// built with Config.Atomic; nil otherwise.
	mons []*monitor

	// obsRec is the layer's shared flight-recorder thread (escalated
	// readers on any goroutine record quiesce events; RareEvent is
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
	d := &Dict{
		shards: make([]dict.Dict, n),
		rt:     newUniformRangeRouter(n, cfg.KeySpan),
		faults: cfg.Faults,
	}
	if cfg.Atomic {
		d.mons = make([]*monitor, n)
		for i := range d.mons {
			d.mons[i] = new(monitor)
		}
	}
	for i := range d.shards {
		d.shards[i] = cfg.New(i)
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

// ShardFor returns the index of the partition owning key.
func (d *Dict) ShardFor(key uint64) int { return d.rt.ShardFor(key) }

// Bounds returns the key range [lo, hi) owned by partition i. The
// partitions are contiguous and ascending in i, and the last one's hi is
// ^uint64(0): it owns everything upward.
func (d *Dict) Bounds(i int) (lo, hi uint64) { return d.rt.Bounds(i) }

// NewHandle registers a per-goroutine handle on every shard.
//
// On a monitored dictionary (Config.Atomic) the handle is the one place
// an update is admitted and published: a point update routes, opens its
// bracket on the target shard's monitor — waiting there, outside any
// inner operation, while an escalated reader holds the shard's quiesce
// gate — dispatches through the inner handle, and closes the bracket
// when the inner call returns (handle.routeUpdate; ExecGroup brackets
// each shard segment once). Nothing below the handle knows the monitor.
func (d *Dict) NewHandle() dict.Handle {
	hs := make([]dict.Handle, len(d.shards))
	for i, s := range d.shards {
		hs[i] = s.NewHandle()
	}
	h := &handle{d: d, hs: hs}
	if d.mons != nil {
		h.samples = make([]sample, len(d.shards))
		h.pins = pinnedReaders(hs)
	}
	return h
}

// pinnedReaders returns the inner handles as pinned readers when a
// fan-out over them may run as pinned transactions (handle.pinned), nil
// when it must sample and validate instead: unless every inner handle is
// pinnable — one shard read some other way would not be at the others'
// instant.
func pinnedReaders(hs []dict.Handle) []dict.PinnedReader {
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
	st := RQStats{
		Attempts:    d.rqAttempts.Load(),
		Retries:     d.rqRetried.Load(),
		Escalations: d.rqEscalations.Load(),
		Pinned:      d.rqPinned.Load(),
	}
	for _, m := range d.mons {
		st.Quiesces += m.quiesces.Load()
	}
	return st
}

// readConsistent drives one atomic read of shards first..last: it runs
// try — one optimistic attempt at the read, reporting whether what it
// left behind is a consistent cut — until an attempt succeeds. After
// DefaultRQRetries failed attempts it escalates: it closes the shards'
// quiesce gates, waits for the updates in flight to drain, and makes one
// last attempt, read — a plain read of the shards, which nothing can
// change while the gates are held. What an optimistic attempt is, is the
// caller's choice: a pinned snapshot (handle.pinned) or the
// sample/read/validate body (Dict.validated).
func (d *Dict) readConsistent(first, last int, try func() bool, read func()) {
	for n := 0; n < DefaultRQRetries; n++ {
		d.rqAttempts.Add(1)
		if try() {
			return
		}
		d.rqRetried.Add(1)
	}
	d.rqEscalations.Add(1)
	d.rqAttempts.Add(1)
	// Quiesce now, release via defer: if read panics (it runs an
	// arbitrary inner dictionary) and the caller recovers, held gates
	// must not leak — they would park every future update forever.
	for s := first; s <= last; s++ {
		defer d.mons[s].Quiesce()()
		if d.obsRec != nil {
			d.obsRec.RareEvent(obs.EvQuiesce, 0, htm.CauseNone, uint64(s), 0)
		}
	}
	// Quiesce-fault seam: the escalated reader holds every overlapping
	// shard's gate; an injected stall parks those shards' updates.
	d.faults.Hit(fault.PointQuiesce)
	read()
}

// validated is the software attempt body of an atomic cross-shard read:
// sample the monitor of every shard first..last, run read — an
// idempotent function reading those shards — and re-validate the
// samples. samples is caller scratch with capacity NumShards.
func (d *Dict) validated(first, last int, samples []sample, read func()) bool {
	samples = samples[:0]
	for s := first; s <= last; s++ {
		smp, ok := d.mons[s].Sample()
		if !ok {
			return false // an update is mid-flight
		}
		samples = append(samples, smp)
	}
	read()
	for s := first; s <= last; s++ {
		if !d.mons[s].Validate(samples[s-first]) {
			return false
		}
	}
	return true
}

// KeySum returns the sum and count of keys across all shards.
//
// Consistency: with Config.Atomic the result is a consistent cut — the
// sum and count of the keys present at one instant during the call, as
// if taken at a single linearization point — and KeySum may run
// concurrently with updates. Without it, KeySum inherits the inner
// dictionaries' quiescent-only contract: each shard is summed at a
// different time, and a shard's walk may itself race updaters.
//
// The cut is sampled and validated, or read under the gates, never
// pinned: dict.Dict's KeySum is the paper's quiescent checksum, a plain
// walk of the whole tree outside any transaction, called on the
// dictionary — there is no per-thread handle to run a transaction on,
// and the walk reads every cell of a shard, which no transaction's
// capacity holds.
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
	last := len(d.shards) - 1
	samples := make([]sample, 0, len(d.shards))
	d.readConsistent(0, last, func() bool {
		return d.validated(0, last, samples, read)
	}, read)
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
// shard i is routed to shard i by the routing table. Quiescent use only.
func (d *Dict) CheckPartition() error {
	d.checkMu.Lock()
	defer d.checkMu.Unlock()
	if d.checkHandles == nil {
		d.checkHandles = make([]dict.Handle, len(d.shards))
		for i, s := range d.shards {
			d.checkHandles[i] = s.NewHandle()
		}
	}
	for i := range d.shards {
		pairs := d.checkHandles[i].RangeQuery(0, maxKeySpan, nil)
		for _, kv := range pairs {
			if owner := d.rt.ShardFor(kv.Key); owner != i {
				lo, hi := d.rt.Bounds(i)
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
	samples []sample // scratch for atomic fan-out validation

	// pins holds the inner handles as pinned readers when atomic
	// fan-outs through this handle may run pinned (see pinnedReaders);
	// it is nil otherwise.
	pins []dict.PinnedReader
}

// routeUpdate returns the shard owning key and, on a monitored
// dictionary, that shard's monitor with the update's bracket open on it
// — admitted, after waiting while an escalated reader held the shard's
// quiesce gate. The caller closes the bracket with the monitor's Exit,
// deferred, once the inner call returns: a panic out of the inner
// dictionary must not strand the ingress count, which would wedge every
// later Sample and Quiesce of the shard. An update that never returns (a
// killed fallback owner) keeps its bracket open: the shard's sampled and
// escalated reads stop, and never pass over its commit.
func (h *handle) routeUpdate(key uint64) (int, *monitor) {
	d := h.d
	s := d.rt.ShardFor(key)
	if d.mons == nil {
		return s, nil
	}
	m := d.mons[s]
	m.Enter()
	return s, m
}

func (h *handle) Insert(key, val uint64) (old uint64, existed bool) {
	s, m := h.routeUpdate(key)
	if m != nil {
		defer m.Exit()
	}
	return h.hs[s].Insert(key, val)
}

func (h *handle) Delete(key uint64) (old uint64, existed bool) {
	s, m := h.routeUpdate(key)
	if m != nil {
		defer m.Exit()
	}
	return h.hs[s].Delete(key)
}

// Search routes to the owning shard. Searches are never admitted: a
// read does not wait at a quiesce gate.
func (h *handle) Search(key uint64) (val uint64, found bool) {
	return h.hs[h.d.rt.ShardFor(key)].Search(key)
}

// readShards appends the pairs of [lo, hi) from shards first..last to
// out. The partition is contiguous and ascending, so the concatenation
// is in key order.
func (h *handle) readShards(first, last int, lo, hi uint64, out []dict.KV) []dict.KV {
	for s := first; s <= last; s++ {
		out = h.hs[s].RangeQuery(lo, hi, out)
	}
	return out
}

// pinned is the transactional attempt body of an atomic cross-shard
// read, the counterpart of one hardware transaction spanning shards
// first..last. Every shard has its own TM, so no one transaction can
// span them; but the shards share one version clock, and a read-only
// transaction begun at a snapshot of it sees its shard as it was when
// the clock held that value, however much later it runs. So the attempt
// (1) enters every shard's reclamation bracket, which must hold from
// before the snapshot is taken for the nodes reachable at it to outlive
// the reads; (2) takes one snapshot, rv, with htm.Pin; and (3) calls
// read(rv), which runs each shard's query once as a transaction pinned
// at rv (dict.PinnedReader) and reports the first status that is not
// PinCommitted. An update becomes visible at the first advance of the
// clock that reaches its version (the Pin is one, so every update
// completed before the read is visible), so what the pinned queries
// return together is the dictionary's content at that instant — and what
// makes one abort is a cell it reaches stamped past rv, not any update
// anywhere in its shard.
func (h *handle) pinned(first, last int, read func(rv uint64) dict.PinStatus) dict.PinStatus {
	for s := first; s <= last; s++ {
		h.pins[s].PinEnter()
	}
	defer h.pinExit(first, last)
	return read(htm.Pin())
}

func (h *handle) pinExit(first, last int) {
	for s := first; s <= last; s++ {
		h.pins[s].PinExit()
	}
}

// readAtomic runs one atomic read of shards first..last through the
// retry/escalate loop. While the handle supports it the optimistic
// attempts are pinned transactions (pinned, running pin); otherwise, and
// from the moment a shard's query does not fit a transaction (PinUnfit:
// retrying would burn the budget on aborts that cannot succeed), they
// sample, run read and validate (Dict.validated). Escalated, it runs
// read under the gates.
func (h *handle) readAtomic(first, last int, pin func(rv uint64) dict.PinStatus, read func()) {
	d := h.d
	pinning := h.pins != nil
	d.readConsistent(first, last, func() bool {
		if !pinning {
			return d.validated(first, last, h.samples, read)
		}
		d.rqPinned.Add(1)
		st := h.pinned(first, last, pin)
		pinning = st != dict.PinUnfit
		return st == dict.PinCommitted
	}, read)
}

// RangeQuery fans out to the shards overlapping [lo, hi). Each shard
// filters to its own keys and the partition is contiguous, so handing
// every shard the full interval and concatenating in partition order
// preserves global ascending key order. With Config.Atomic a fan-out
// that spans shards is additionally run through readAtomic, making the
// result a consistent cut. A window inside a single shard skips it and
// is that shard's own range query, which is atomic only while it fits a
// transaction (or runs under TLE's lock): past the read capacity it is
// the shard's fallback walk, which validates each node as it visits it
// and is not an atomic cut (TestFallbackRangeQueryIsACut).
func (h *handle) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	if hi <= lo {
		return out
	}
	first, last := h.d.rt.overlap(lo, hi)
	if h.d.mons == nil || first == last {
		return h.readShards(first, last, lo, hi, out)
	}
	base := len(out)
	h.readAtomic(first, last, func(rv uint64) dict.PinStatus {
		out = out[:base]
		for s := first; s <= last; s++ {
			var st dict.PinStatus
			if out, st = h.pins[s].RangeQueryAt(rv, lo, hi, out); st != dict.PinCommitted {
				return st
			}
		}
		return dict.PinCommitted
	}, func() {
		out = h.readShards(first, last, lo, hi, out[:base])
	})
	return out
}

var _ dict.AggHandle = (*handle)(nil)

// RangeAgg returns the aggregate tuple (sum/count/min/max) of the keys
// in [lo, hi) across all overlapping shards: RangeQuery's fan-out, with
// each shard's part folded by the shard (shardAgg, or RangeAggAt when
// pinned) and the tuples merged, so the tuple is the consistent cut the
// atomic read protocol makes of the range, and no pairs are kept.
//
// It requires that protocol: a dictionary built without Config.Atomic
// cannot order the per-shard reads against concurrent updates, and a
// sum over a torn range is silently wrong — unlike a torn RangeQuery,
// there is no per-key output to cross-check. Such dictionaries reject
// the query with an error instead.
func (h *handle) RangeAgg(lo, hi uint64) (dict.Agg, error) {
	if hi > lo && h.d.mons == nil {
		return dict.Fold(nil), fmt.Errorf(
			"shard: Config.Atomic = false (cross-shard aggregate queries would fold torn ranges into wrong sums; set Config.Atomic)")
	}
	agg := dict.Fold(nil)
	if hi <= lo {
		return agg, nil
	}
	first, last := h.d.rt.overlap(lo, hi)
	if first == last {
		return h.shardAgg(first, lo, hi)
	}
	var err error
	h.readAtomic(first, last, func(rv uint64) dict.PinStatus {
		agg = dict.Fold(nil)
		for s := first; s <= last; s++ {
			a, st := h.pins[s].RangeAggAt(rv, lo, hi)
			if st != dict.PinCommitted {
				return st
			}
			agg.Merge(a)
		}
		return dict.PinCommitted
	}, func() {
		agg, err = dict.Fold(nil), nil
		for s := first; s <= last && err == nil; s++ {
			var a dict.Agg
			a, err = h.shardAgg(s, lo, hi)
			agg.Merge(a)
		}
	})
	return agg, err
}

// shardAgg folds shard s's part of [lo, hi): the inner handle's own
// aggregate query when it has one, else its range query, folded.
func (h *handle) shardAgg(s int, lo, hi uint64) (dict.Agg, error) {
	if ah, ok := h.hs[s].(dict.AggHandle); ok {
		return ah.RangeAgg(lo, hi)
	}
	return dict.Fold(h.hs[s].RangeQuery(lo, hi, nil)), nil
}
