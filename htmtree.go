// Package htmtree is a Go reproduction of Trevor Brown's "A Template
// for Implementing Fast Lock-free Trees Using HTM" (PODC 2017).
//
// It provides two concurrent ordered dictionaries built from the LLX/SCX
// tree update template — an unbalanced external binary search tree and a
// relaxed (a,b)-tree — each runnable under every template algorithm the
// paper studies:
//
//   - NonHTM: the original lock-free template (the baseline),
//   - TLE: transactional lock elision,
//   - TwoPathConc: HTM fast path concurrent with the lock-free fallback,
//   - TwoPathNCon: HTM fast path, concurrency with the fallback disallowed,
//   - ThreePath: the paper's contribution — an uninstrumented HTM fast
//     path, an instrumented HTM middle path, and a lock-free fallback
//     path, with concurrency between adjacent paths,
//   - SCXHTM: the Section 4 algorithm (HTM-accelerated LLX/SCX
//     primitives with the operation structure unchanged).
//
// Hardware transactional memory is simulated in software (Go has no TSX
// intrinsics): transactions are opaque and strongly atomic with respect
// to non-transactional accesses, and abort with conflict / capacity /
// explicit / spurious causes, so every algorithmic interaction the paper
// describes is exercised. See ARCHITECTURE.md ("paper-to-code map") for
// the substitution argument and where each paper figure lives in the
// code, and bench/README.md for how the repo measures itself.
//
// Quickstart:
//
//	tree, err := htmtree.NewABTree(htmtree.Config{Algorithm: htmtree.ThreePath})
//	if err != nil { ... }
//	h := tree.NewHandle() // one handle per goroutine
//	h.Insert(42, 1)
//	v, ok := h.Search(42)
//	pairs := h.RangeQuery(0, 100, nil)
package htmtree

import (
	"fmt"
	"strconv"

	"htmtree/internal/abtree"
	"htmtree/internal/batch"
	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/obs"
	"htmtree/internal/shard"
)

// Algorithm names one of the template implementations.
type Algorithm string

// The template algorithms of the paper.
const (
	NonHTM      Algorithm = "non-htm"
	TLE         Algorithm = "tle"
	TwoPathConc Algorithm = "2-path-con"
	TwoPathNCon Algorithm = "2-path-ncon"
	ThreePath   Algorithm = "3-path"
	SCXHTM      Algorithm = "scx-htm"
)

// Algorithms lists every algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{NonHTM, TLE, TwoPathConc, TwoPathNCon, ThreePath, SCXHTM}
}

// MaxKey is the largest key a client may store (larger values are
// reserved for internal sentinels).
const MaxKey = dict.MaxKey

// Result and statistics types the internal layers define, re-exported:
// each is documented where it is declared.
type (
	// KV is a key-value pair returned by range queries (dict.KV).
	KV = dict.KV
	// Agg is the aggregate tuple of a key range — key sum, count, min
	// and max (dict.Agg). An empty range has Count == 0 with Min ==
	// MaxUint64 and Max == 0 (the merge identities); check Count before
	// trusting Min/Max.
	Agg = dict.Agg
	// PathCounts counts events per execution path (engine.PathCounts).
	PathCounts = engine.PathCounts
	// PolicyStats counts the attempt loops' per-cause retry actions
	// (engine.PolicyStats).
	PolicyStats = engine.PolicyStats
	// ReclaimStats holds the node-reclamation gauges: removed nodes
	// waiting out a grace period and nodes pooled for reuse, by free
	// list (engine.ReclaimStats).
	ReclaimStats = engine.ReclaimStats
	// RangeQueryStats counts the outcomes of atomic cross-shard reads
	// (shard.RQStats).
	RangeQueryStats = shard.RQStats
	// BatchStats counts batched/asynchronous execution activity: the
	// asynchronous handles' flushes and, on a sharded tree, the shard
	// groups they executed as (batch.Stats).
	BatchStats = batch.Stats
)

// Config configures a tree. The zero value selects the 3-path algorithm
// with the paper's default parameters.
type Config struct {
	// Algorithm selects the template implementation (default ThreePath).
	Algorithm Algorithm

	// ReadCapacity and WriteCapacity bound the simulated transactional
	// footprint (defaults model an Intel-like HTM; a smaller machine, such
	// as the POWER8 of the paper's Section 8, is both set lower).
	ReadCapacity, WriteCapacity int

	// Faults, when non-nil, arms the deterministic fault-injection
	// plane (NewFaultPlan) across every layer of the tree: forced
	// transactional aborts (FaultTxAccess, spurious unless the rule
	// names another cause), fallback-owner stalls and permanent owner
	// death (under ThreePath, TwoPathConc, NonHTM and SCXHTM the other
	// threads keep completing operations past a dead owner; TLE and
	// TwoPathNCon wait for it by design), stalls of escalated readers
	// holding quiesce gates, reclamation pin stalls, and batch flush
	// delays. One plan may be shared by several trees; its per-point counters
	// are then global. On an observed tree (Observability set) every
	// fired fault is additionally recorded in the flight recorder as a
	// fault_abort / fault_stall / fault_kill event, so a chaos failure
	// reproduces from the (seed, plan) pair alone. Nil (the default)
	// compiles every injection check to a single predictable branch.
	Faults *FaultPlan

	// A and B are the (a,b)-tree degree bounds (defaults 6 and 16;
	// ignored by the BST): A >= 2 and 2A-1 <= B <= 16. A leaf's order
	// word addresses at most 16 slots; NewABTree and NewShardedABTree
	// return an "invalid degree bounds" error outside that range.
	A, B int

	// Shards is the partition count for NewShardedBST / NewShardedABTree
	// (default 8; ignored by NewBST / NewABTree). Each
	// shard is an independent tree with its own engine, HTM context, and
	// fallback indicator.
	Shards int
	// ShardKeySpan is the exclusive upper bound of the key range the
	// partition is balanced over (default MaxKey+1): shard i owns
	// [i*width, (i+1)*width) for width ⌈ShardKeySpan/Shards⌉, fixed for
	// the tree's lifetime. Set it near the workload's key range so the
	// shards share load evenly; larger keys remain legal and route to the
	// last shard.
	ShardKeySpan uint64
	// AtomicRangeQueries makes RangeQuery, RangeAgg and KeySum on a
	// sharded tree atomic across shards. A range or aggregate query that
	// spans shards enters every shard's reclamation bracket, takes one
	// snapshot of the version clock all shards share (htm.Pin), and runs
	// each shard's part once, as a read-only transaction at that
	// snapshot, so what fails an attempt is a write to something the
	// query reads, as for a query inside one tree. Where that cannot
	// serve — KeySum, the NonHTM and SCXHTM algorithms, a scan beyond
	// ReadCapacity — the read instead samples a monitor every shard
	// carries, which brackets each update from start to end, and
	// validates after reading that no shard's moved. Either way a failed
	// attempt is retried and, after 8 attempts, the read quiesces the
	// overlapping shards and reads them once, plainly. Without the
	// option, a cross-shard read observes each shard at a possibly
	// different point in time. A read whose window lies inside one shard
	// takes none of this, with or without the option: it is that shard's
	// own read, like a read of an unsharded tree. Unsharded trees ignore
	// the option. Their reads are single operations: atomic when they fit
	// a transaction, and otherwise a fallback walk that validates each
	// node as it visits it and is not an atomic cut (see
	// Handle.RangeAgg).
	AtomicRangeQueries bool

	// BatchMaxOps is the buffer size at which an asynchronous handle
	// (NewAsyncHandle) flushes its pending operations as one sorted,
	// shard-grouped batch (default 64). Larger batches amortize routing
	// and — on a sharded tree with AtomicRangeQueries — admission
	// overhead further but delay results longer. Below the threshold the
	// buffer flushes only on Flush or Wait.
	BatchMaxOps int

	// Observability, when non-nil, attaches the live observability
	// layer: a pull-model metrics registry over the counters the tree
	// already maintains (Prometheus text and JSON exposition), sampled
	// operation latency histograms, per-thread flight recorders of
	// abort/acquire/quiesce events, and runtime/trace regions around
	// operation execution. Retrieve the domain with Tree.Obs and serve
	// it over HTTP with obs.Serve. The zero ObsConfig selects the
	// default sampling rates; instrumented steady-state point
	// operations stay allocation-free.
	Observability *ObsConfig
}

// ObsConfig configures the observability layer (Config.Observability).
// The zero value selects the defaults; see each field for how to
// disable its subsystem outright.
type ObsConfig struct {
	// LatencySample times one point operation in every LatencySample
	// (default 64; negative disables latency timing).
	LatencySample int
	// EventSample records one hot-path flight-recorder event (operation
	// completions, transactional aborts) in every EventSample (default
	// 64; negative disables hot events). Cold events — TLE lock
	// acquisition, quiesce, fired faults — are always recorded.
	EventSample int
	// EventBuffer is the per-thread flight-recorder ring capacity in
	// events, rounded up to a power of two (default 2048; negative
	// disables the recorder entirely).
	EventBuffer int
}

// Fault-injection plane (internal/fault), re-exported for external
// chaos harnesses: a FaultPlan compiles a seed and per-point FaultRule
// triggers into deterministic injected effects at the named seams.
// See Config.Faults and ARCHITECTURE.md ("Fault injection & liveness
// checking") for the point catalogue and reproduction workflow.
type (
	// FaultPlan is a compiled, live fault plan (fault.Plan).
	FaultPlan = fault.Plan
	// FaultRule arms one injection point (fault.Rule).
	FaultRule = fault.Rule
	// FaultLiveness is the progress watchdog (fault.Liveness):
	// attach with plan.Watch, feed it completed operations with
	// OpDone, and Check that throughput stayed nonzero during every
	// watched stall window.
	FaultLiveness = fault.Liveness
)

// The injection-point catalogue (see the fault package for the exact
// seam each point is compiled into).
const (
	FaultTxAccess      = fault.PointTxAccess
	FaultFallbackOwner = fault.PointFallbackOwner
	FaultQuiesce       = fault.PointQuiesce
	FaultEBRPin        = fault.PointEBRPin
	FaultBatchFlush    = fault.PointBatchFlush
)

// NewFaultPlan compiles a fault plan from a seed and rules
// (fault.New). Every trigger decision is a pure function of the seed,
// the point, and the per-point encounter index, so a run reproduces
// from the (seed, plan) pair.
func NewFaultPlan(seed uint64, rules ...FaultRule) *FaultPlan {
	return fault.New(seed, rules...)
}

// wireFaultRecorder bridges fired faults into the flight recorder:
// every fire becomes a cold event (fault_abort for forced
// transactional aborts, fault_kill for owner death, fault_stall
// otherwise) with A = the fault point and B = the per-point fire
// sequence number, so a recorded chaos run names exactly which
// injections it suffered.
func wireFaultRecorder(p *FaultPlan, o *obs.Obs) {
	if p == nil || o == nil {
		return
	}
	rec := o.Node().NewThread()
	p.SetOnFire(func(e fault.Effect) {
		kind := obs.EvFaultStall
		switch {
		case e.Point == fault.PointTxAccess:
			kind = obs.EvFaultAbort
		case e.Kill:
			kind = obs.EvFaultKill
		}
		rec.RareEvent(kind, 0, htm.CauseNone, uint64(e.Point), e.Seq)
	})
}

// domain builds the tree's observability domain, nil when disabled.
func (c Config) obsDomain() *obs.Obs {
	if c.Observability == nil {
		return nil
	}
	return obs.New(obs.Config{
		LatencySample: c.Observability.LatencySample,
		EventSample:   c.Observability.EventSample,
		EventBuffer:   c.Observability.EventBuffer,
	})
}

// obsNode returns an unlabelled registration node of o, or nil.
func obsNode(o *obs.Obs) *obs.Node {
	if o == nil {
		return nil
	}
	return o.Node()
}

// validate checks every knob once, up front, and returns what each inner
// tree is built from: the parsed algorithm and the TM and engine
// configurations. ab says whether the (a,b)-tree degree bounds apply.
func (c Config) validate(ab bool) (alg engine.Algorithm, hcfg htm.Config, ecfg engine.Config, err error) {
	alg = engine.AlgThreePath
	if c.Algorithm != "" {
		var ok bool
		if alg, ok = engine.ParseAlgorithm(string(c.Algorithm)); !ok {
			return 0, hcfg, ecfg, fmt.Errorf("htmtree: unknown algorithm %q", c.Algorithm)
		}
	}
	// Only zero selects a default below this layer: a negative capacity
	// would build a tree that never commits a transaction.
	for _, k := range []struct {
		name   string
		v, def int
	}{
		{"ReadCapacity", c.ReadCapacity, htm.DefaultReadCapacity},
		{"WriteCapacity", c.WriteCapacity, htm.DefaultWriteCapacity},
		{"BatchMaxOps", c.BatchMaxOps, batch.DefaultMaxOps},
	} {
		if k.v < 0 {
			return 0, hcfg, ecfg, fmt.Errorf("htmtree: Config.%s = %d (want >= 0; 0 selects the default %d)",
				k.name, k.v, k.def)
		}
	}
	if ab {
		if err := abtree.CheckDegree(c.A, c.B); err != nil {
			return 0, hcfg, ecfg, fmt.Errorf("htmtree: %w", err)
		}
	}
	hcfg = htm.Config{
		ReadCapacity:  c.ReadCapacity,
		WriteCapacity: c.WriteCapacity,
		Faults:        c.Faults,
	}
	ecfg = engine.Config{Faults: c.Faults}
	return alg, hcfg, ecfg, nil
}

// Tree is a concurrent ordered dictionary (BST or (a,b)-tree) built from
// the accelerated tree update template. Create one with NewBST or
// NewABTree and access it through per-goroutine handles.
type Tree struct {
	d          dict.Dict
	stats      engine.StatsSource
	invariants func() error

	// batchCfg templates the pipelines behind NewAsyncHandle; batchCtrs
	// aggregates their flush activity — on a sharded tree beside the
	// shard groups' — for Stats.Batch.
	batchCfg  batch.Config
	batchCtrs *batch.Counters

	// obs is the live observability domain (nil unless
	// Config.Observability was set).
	obs *obs.Obs
}

// Obs returns the tree's observability domain — nil unless the tree
// was built with Config.Observability. Serve it over HTTP with
// obs.Serve, scrape it directly with Obs.Snapshot/WriteProm, or drain
// the flight recorders with Obs.Events.
func (t *Tree) Obs() *obs.Obs { return t.obs }

// build is the one constructor behind the four public ones: validate
// the configuration, build the tree — one inner tree, or cfg.Shards of
// them under the shard layer — and attach the batching template and the
// observability domain. Each inner tree registers the inner metric
// families on its node (labelled shard="i" on a sharded tree), and the
// tree the rest on the domain's unlabelled node.
func build(cfg Config, ab, sharded bool) (*Tree, error) {
	alg, hcfg, ecfg, err := cfg.validate(ab)
	if err != nil {
		return nil, err
	}
	o := cfg.obsDomain()
	wireFaultRecorder(cfg.Faults, o)
	inner := func(node *obs.Node) *Tree {
		ecfg := ecfg
		ecfg.Obs = node
		var it *Tree
		if ab {
			t := abtree.New(abtree.Config{A: cfg.A, B: cfg.B, Algorithm: alg,
				HTM: hcfg, Engine: ecfg})
			it = &Tree{d: t, stats: t, invariants: func() error { return t.CheckInvariants(true) }}
		} else {
			t := bst.New(bst.Config{Algorithm: alg, HTM: hcfg, Engine: ecfg})
			it = &Tree{d: t, stats: t, invariants: t.CheckInvariants}
		}
		if node != nil {
			register(node, true, func() Stats { return statsOf(it.stats.OpStats()) })
		}
		return it
	}
	var t *Tree
	if sharded {
		if t, err = newSharded(cfg, o, inner); err != nil {
			return nil, err
		}
	} else {
		t = inner(obsNode(o))
	}
	t.batchCtrs = &batch.Counters{}
	if sd, ok := t.d.(*shard.Dict); ok {
		t.batchCtrs = sd.BatchCounters()
	}
	t.batchCfg = batch.Config{MaxOps: cfg.BatchMaxOps, Counters: t.batchCtrs, Faults: cfg.Faults}
	if o != nil {
		t.obs = o
		register(o.Node(), false, t.Stats)
	}
	return t, nil
}

// NewBST creates an unbalanced external binary search tree (paper
// Section 6.1).
func NewBST(cfg Config) (*Tree, error) { return build(cfg, false, false) }

// NewABTree creates a relaxed (a,b)-tree (paper Section 6.2).
func NewABTree(cfg Config) (*Tree, error) { return build(cfg, true, false) }

// NewShardedBST creates a sharded BST: the key space is partitioned
// across cfg.Shards independent trees (each with its own engine, HTM
// context, and fallback indicator). Point operations route to the
// owning shard; RangeQuery fans out to the overlapping shards and
// returns a globally key-ordered result — a consistent cut of the
// shards it spans when cfg.AtomicRangeQueries is set, and otherwise (or
// inside one shard) each shard's own read, atomic while it fits a
// transaction (see Config.AtomicRangeQueries); KeySum, Stats, and
// CheckInvariants aggregate.
func NewShardedBST(cfg Config) (*Tree, error) { return build(cfg, false, true) }

// NewShardedABTree creates a sharded relaxed (a,b)-tree; see
// NewShardedBST for the partitioning contract.
func NewShardedABTree(cfg Config) (*Tree, error) { return build(cfg, true, true) }

// newSharded partitions the key space across cfg.Shards instances built
// by mk, wiring invariant checking through the shard layer. With an
// observability domain each inner tree is built on a node labelled
// shard="i", and the shard layer records its quiesce events on an
// unlabelled one.
func newSharded(cfg Config, o *obs.Obs, mk func(node *obs.Node) *Tree) (*Tree, error) {
	var inner []*Tree
	sd, err := shard.New(shard.Config{
		Shards:  cfg.Shards,
		KeySpan: cfg.ShardKeySpan,
		Atomic:  cfg.AtomicRangeQueries,
		Obs:     obsNode(o),
		Faults:  cfg.Faults,
		New: func(i int) dict.Dict {
			var node *obs.Node
			if o != nil {
				node = o.Node(obs.L("shard", strconv.Itoa(i)))
			}
			t := mk(node)
			inner = append(inner, t)
			return t.d
		},
	})
	if err != nil {
		return nil, err
	}
	return &Tree{
		d:     sd,
		stats: sd,
		invariants: func() error {
			for i, t := range inner {
				if ivErr := t.invariants(); ivErr != nil {
					return fmt.Errorf("shard %d: %w", i, ivErr)
				}
			}
			return sd.CheckPartition()
		},
	}, nil
}

// NewHandle registers a per-goroutine handle. Handles must not be shared
// between goroutines.
func (t *Tree) NewHandle() *Handle {
	return &Handle{h: t.d.NewHandle()}
}

// NewAsyncHandle registers a per-goroutine asynchronous handle: point
// operations enqueue into a batch buffer and return futures, and the
// buffer flushes as one key-sorted, shard-grouped batch when it
// reaches Config.BatchMaxOps, on Flush, or when a future of a
// still-buffered operation is waited on. On a sharded tree each
// shard-group executes with one router lookup and one monitor
// admission instead of one per operation — the batching subsystem's
// amortization, reported by Stats.Batch.
//
// One goroutine should enqueue per AsyncHandle (like Handle); a future
// may be waited on from another, which the handle synchronizes
// internally.
func (t *Tree) NewAsyncHandle() *AsyncHandle {
	return &AsyncHandle{p: batch.New(t.d.NewHandle(), t.batchCfg)}
}

// KeySum returns the sum and count of the keys present (the paper's
// validation checksum). On a sharded tree with AtomicRangeQueries it is
// a consistent cut and may run concurrently with updates; otherwise it
// is quiescent use only.
func (t *Tree) KeySum() (sum, count uint64) { return t.d.KeySum() }

// CheckInvariants validates the structure (quiescent use only).
func (t *Tree) CheckInvariants() error { return t.invariants() }

// Handle is a per-goroutine handle to a Tree.
type Handle struct {
	h dict.Handle
}

// Insert associates key with val, returning the previous value and
// whether the key was already present.
func (h *Handle) Insert(key, val uint64) (old uint64, existed bool) {
	return h.h.Insert(key, val)
}

// Delete removes key, returning its value and whether it was present.
func (h *Handle) Delete(key uint64) (old uint64, existed bool) {
	return h.h.Delete(key)
}

// Search returns the value associated with key, if present.
func (h *Handle) Search(key uint64) (val uint64, found bool) {
	return h.h.Search(key)
}

// RangeQuery appends all pairs with lo <= key < hi, in ascending key
// order, to out and returns the extended slice.
func (h *Handle) RangeQuery(lo, hi uint64, out []KV) []KV {
	return h.h.RangeQuery(lo, hi, out)
}

// RangeAgg returns the aggregate tuple (key sum, count, min, max) of
// the keys in [lo, hi). It folds RangeQuery over the same window, so it
// costs O(range) and is exactly as atomic as RangeQuery: atomic with
// respect to concurrent updates when the query fits a transaction, or on
// a sharded tree with AtomicRangeQueries; otherwise it is the fallback
// walk's answer, which validates each node as it visits it and is not
// an atomic cut (ROADMAP D). On a sharded tree without
// AtomicRangeQueries it returns an error.
func (h *Handle) RangeAgg(lo, hi uint64) (Agg, error) {
	ah, ok := h.h.(dict.AggHandle)
	if !ok {
		return Agg{Min: ^uint64(0)}, fmt.Errorf("htmtree: %T does not support aggregate queries", h.h)
	}
	return ah.RangeAgg(lo, hi)
}

// AsyncHandle is a per-goroutine asynchronous, batching handle to a
// Tree (see Tree.NewAsyncHandle). Operations on
// different keys may be reordered within a batch (execution is sorted
// by key and grouped by shard); operations on the same key keep their
// enqueue order, and every future resolves to the result its operation
// saw at its place in that execution.
type AsyncHandle struct {
	p *batch.Pipeline
}

// Insert enqueues an asynchronous insert. The future resolves to the
// previous value and whether the key already existed.
func (h *AsyncHandle) Insert(key, val uint64) PointFuture {
	return PointFuture{p: h.p.Insert(key, val)}
}

// Delete enqueues an asynchronous delete. The future resolves to the
// removed value and whether the key was present.
func (h *AsyncHandle) Delete(key uint64) PointFuture {
	return PointFuture{p: h.p.Delete(key)}
}

// Search enqueues an asynchronous search. The future resolves to the
// value found and whether the key was present at the operation's place
// in the batch — a search enqueued after an insert of the same key
// sees that insert.
func (h *AsyncHandle) Search(key uint64) PointFuture {
	return PointFuture{p: h.p.Search(key)}
}

// Flush executes every buffered operation now and completes its
// future. Flushing an empty handle is a no-op.
func (h *AsyncHandle) Flush() { h.p.Flush() }

// PointFuture is the result of an asynchronous Insert, Delete, or
// Search. The zero value is invalid; futures come from AsyncHandle.
type PointFuture struct {
	p *batch.Promise
}

// Wait blocks until the operation executed and returns its result —
// (previous value, existed) for Insert and Delete, (value, found) for
// Search. Waiting on a still-buffered operation flushes the owning
// handle first; calling Wait repeatedly returns the same result.
func (f PointFuture) Wait() (val uint64, ok bool) {
	r := f.p.Wait()
	return r.Val, r.OK
}
