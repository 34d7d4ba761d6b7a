// Package engine implements the execution-path policies of Brown's
// accelerated tree-update-template algorithms (PODC 2017, Sections 1 and
// 5): the original lock-free template (non-htm), transactional lock
// elision (tle), the two 2-path algorithms (with and without concurrency
// between the HTM fast path and the software fallback path), the 3-path
// algorithm that is the paper's contribution, and the standalone
// HTM-SCX algorithm of Section 4 as an ablation.
//
// The engine owns only the template's half of the work: the policy —
// which body to attempt, how many times, when to wait and when to move
// between paths — with its bookkeeping (fallback-presence counter F, TLE
// global lock, per-path operation counters), and the half of a tree's
// per-thread handle that does not depend on the tree (Handle: the
// scratch, the read and range entry points, the pinned reads, the op
// built from an update's one body by TemplateOp). Data structures supply
// the bodies.
package engine

import (
	"fmt"
	"runtime"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"htmtree/internal/dict"
	"htmtree/internal/ebr"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
	"htmtree/internal/obs"
)

// Algorithm selects one of the template implementations studied in the
// paper.
type Algorithm uint8

// Template algorithms. The names follow the paper: TwoPathConc is
// "2-path con" (concurrency between fast and fallback paths, so the fast
// path runs instrumented LLX/SCX code); TwoPathNCon is the non-concurrent
// variant (sequential fast path, fallback presence counter F); ThreePath
// is the paper's contribution.
const (
	AlgNonHTM Algorithm = iota + 1
	AlgTLE
	AlgTwoPathConc
	AlgTwoPathNCon
	AlgThreePath
	AlgSCXHTM // Section 4: HTM LLX/SCX primitives, operation structure unchanged
)

// Algorithms lists every algorithm in presentation order.
var Algorithms = []Algorithm{
	AlgNonHTM, AlgTLE, AlgTwoPathConc, AlgTwoPathNCon, AlgThreePath, AlgSCXHTM,
}

// pathRow is one algorithm's row of the paper's path table (Sections 4
// and 5). Each algorithm restricts 3-path's three paths — a first path,
// a middle path, a software path — and Thread.run interprets the row.
// The engine branches on the row's fields, never on the Algorithm.
type pathRow struct {
	first firstPath
	// soft is the software path that ends the operation. What it holds —
	// F, the TLE lock, or nothing — is what a first-path transaction
	// subscribes to and looks at before it begins, so the two never
	// overlap.
	soft softPath
	// look is what the first path does while that guard is held.
	look guardLook
	name string // the paper's name (Algorithm.String)
}

// firstPath is what an algorithm runs before its software path.
type firstPath uint8

const (
	firstNone   firstPath = iota // nothing: the software path alone
	firstFast                    // Op.Fast in one transaction
	firstInstr                   // Op.Middle (Fast if nil) in one transaction, beside the software path
	firstSCXHTM                  // budgeted Op.SCXHTM attempts (Fallback if nil), each HTM only inside its SCX
)

// softPath is the path that completes an operation the earlier paths
// could not.
type softPath uint8

const (
	softLoop  softPath = iota // Op.Fallback until it succeeds
	softLoopF                 // the same, counted in the fallback-presence indicator F
	softLock                  // Op.Fast with a nil tx under the TLE lock
)

// guardLook is what a first path does about its software path's guard.
type guardLook uint8

const (
	lookNone   guardLook = iota // nothing: the software path holds no guard
	lookWait                    // wait for the guard to clear before each attempt
	lookMoveOn                  // move on to a middle path that runs Op.Middle unsubscribed; the budget is split between the two
)

// paths is the path table: every algorithm's row, indexed by Algorithm.
var paths = [...]pathRow{
	AlgNonHTM:      {name: "non-htm", first: firstNone, soft: softLoop},
	AlgTLE:         {name: "tle", first: firstFast, soft: softLock, look: lookWait},
	AlgTwoPathConc: {name: "2-path-con", first: firstInstr, soft: softLoop},
	AlgTwoPathNCon: {name: "2-path-ncon", first: firstFast, soft: softLoopF, look: lookWait},
	AlgThreePath:   {name: "3-path", first: firstFast, soft: softLoopF, look: lookMoveOn},
	AlgSCXHTM:      {name: "scx-htm", first: firstSCXHTM, soft: softLoop},
}

// subscribes reports whether op's first-path transaction subscribes to
// the software path's guard. An op without a Middle body under a row
// with a middle path does not: its one transactional body is safe beside
// software-path SCXs as it stands (see Op.Middle).
func (r *pathRow) subscribes(op *Op) bool {
	return r.look == lookWait || r.look == lookMoveOn && op.Middle != nil
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	if int(a) < len(paths) && paths[a].name != "" {
		return paths[a].name
	}
	return fmt.Sprintf("algorithm(%d)", uint8(a))
}

// ParseAlgorithm converts a name produced by Algorithm.String back to the
// algorithm, reporting whether the name was recognized.
func ParseAlgorithm(s string) (Algorithm, bool) {
	for _, a := range Algorithms {
		if a.String() == s {
			return a, true
		}
	}
	return 0, false
}

// Explicit abort codes used by the engine and the data-structure bodies.
const (
	// CodeRetry signals a logical retry: an LLX failed, a record was
	// concurrently finalized, or a validation check failed.
	CodeRetry uint8 = 0x01
	// CodeFallbackBusy signals that a fast-path transaction observed the
	// fallback-presence indicator non-zero.
	CodeFallbackBusy uint8 = 0x02
	// CodeLockHeld signals that a TLE transaction observed the global
	// lock held.
	CodeLockHeld uint8 = 0x03
)

// attemptBudget is the paper's fixed attempt budget (Section 7): 20
// attempts on the first path of TLE, the 2-path algorithms and scx-htm,
// and for a 3-path operation with one transactional body; a 3-path
// update splits it in half, 10 on the fast path and 10 on the middle.
const attemptBudget = 20

// Indicator abstracts the fallback-presence counter F. The paper notes a
// fetch-and-increment object suffices; that is the one implementation
// here, and the interface remains so a test can hold the indicator and
// simulate a live fallback operation.
type Indicator interface {
	// Arrive notes that an operation entered the fallback path; Depart
	// retracts one arrival. (Two methods, not an Arrive that returns its
	// own retraction: that is a method value, a heap allocation per
	// fallback-path operation.)
	Arrive()
	Depart()
	// Nonzero reports whether any operation is on the fallback path. A
	// transactional read (tx != nil) subscribes the caller so that a
	// change aborts it.
	Nonzero(tx *htm.Tx) bool
	// Bind associates the indicator's cells with the version clock of
	// the TM whose transactions subscribe to it: arrivals mutate the
	// cells non-transactionally and must advance that clock. The engine
	// binds its indicator at construction.
	Bind(c *htm.Clock)
}

// counterIndicator is the plain fetch-and-increment implementation.
type counterIndicator struct {
	f htm.Word
}

func (c *counterIndicator) Arrive()                 { c.f.Add(1) }
func (c *counterIndicator) Depart()                 { c.f.Add(^uint64(0)) }
func (c *counterIndicator) Nonzero(tx *htm.Tx) bool { return c.f.Get(tx) != 0 }
func (c *counterIndicator) Bind(clk *htm.Clock)     { c.f.Bind(clk) }

// Config controls an Engine.
type Config struct {
	// Algorithm selects the template implementation. Required.
	Algorithm Algorithm
	// Indicator overrides the fallback-presence indicator (default: a
	// fetch-and-increment counter); tests supply their own to arrive on
	// it from outside an operation.
	Indicator Indicator
	// Monitor is ignored. It is kept only because the repository
	// benchmark's layer ladder (bench/layers.go) still sets it.
	Monitor *UpdateMonitor
	// HelpableFallback is ignored. It is kept only because the
	// repository benchmark's layer ladder (bench/layers.go) still sets
	// it; AlgTLE has one fallback, the classic global lock.
	HelpableFallback bool
	// Faults, when non-nil, arms the deterministic fault-injection
	// plane at the engine's seams: fault.PointFallbackOwner fires where
	// a fallback-path owner is most preemption-sensitive — right after
	// the TLE lock acquisition (the convoy window), and as a lock-free
	// software path begins (scx-htm's software phase included), after
	// its arrival on the presence indicator F where the algorithm keeps
	// one (a Kill effect there leaves F held forever, and the other
	// threads must progress past it) — and the plan is forwarded to the
	// engine's reclamation domain for fault.PointEBRPin. The HTM and
	// shard layers carry their own plan references; one shared
	// *fault.Plan arms a whole structure.
	Faults *fault.Plan
	// Obs, when non-nil, attaches this engine to a live observability
	// domain's flight recorder: every NewThread gains a recorder thread
	// with sampled latency capture, runtime/trace op regions, and
	// abort/acquire events. (The metric families that read Stats are
	// registered by the public package.)
	Obs *obs.Node
}

// UpdateMonitor does nothing. It is kept only because the repository
// benchmark's layer ladder (bench/layers.go) still names it, with the
// Config field of its type and its constructor below; the sharding
// layer's handles publish and admit updates (internal/shard).
type UpdateMonitor struct{}

// NewUpdateMonitor returns an UpdateMonitor; the indicator is ignored.
func NewUpdateMonitor(Indicator) *UpdateMonitor { return &UpdateMonitor{} }

func (c Config) withDefaults() Config {
	if c.Indicator == nil {
		c.Indicator = &counterIndicator{}
	}
	return c
}

// Engine executes operations according to one of the template
// algorithms. Every operation of every thread reads cfg, so a cache line
// of padding at each end keeps it off the lines of whatever the
// allocator places beside the engine: unpadded, ab-update's throughput
// moved by up to 9 % (2 vCPUs) with the size class Config's length put
// the engine in.
type Engine struct {
	_   [64]byte
	cfg Config
	row pathRow // paths[cfg.Algorithm]
	// tle is the TLE global lock word: 0 free, 1 held.
	tle     htm.Word
	reclaim *ebr.Manager // epoch domain for the structure's node pools

	// walker is Walk's reader context, which retires nothing; walkMu
	// serializes its walks.
	walkMu sync.Mutex
	walker *ebr.Thread

	mu      sync.Mutex
	threads []*Thread
	_       [64]byte
}

// New creates an engine bound to the version clock of the TM whose
// threads it will run (htm.TM.Clock). The engine's own cells — the TLE
// lock and the fallback-presence indicator, which transactions subscribe
// to and non-transactional paths mutate — join that clock's
// synchronization domain here. Zero fields of cfg select defaults.
func New(cfg Config, clk *htm.Clock) *Engine {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = AlgThreePath
	}
	if int(cfg.Algorithm) >= len(paths) {
		panic(fmt.Sprintf("engine: unknown algorithm %d", cfg.Algorithm))
	}
	e := &Engine{cfg: cfg.withDefaults(), row: paths[cfg.Algorithm], reclaim: ebr.New()}
	e.reclaim.SetFaults(e.cfg.Faults)
	e.walker = e.reclaim.NewThread(func(any) {})
	e.tle.Bind(clk)
	e.cfg.Indicator.Bind(clk)
	return e
}

// Thread is the per-goroutine execution context: the HTM thread, the
// tagged-sequence-number source, the reclamation context, and per-path
// operation counters. The owner adds to the counters on every operation,
// so a cache line of padding at each end keeps the fields off the lines
// of a neighbouring thread's context (see ebr.Thread).
type Thread struct {
	_ [64]byte
	// H is the simulated-HTM thread context.
	H *htm.Thread
	// Tags produces the fresh tagged info values HTM-path SCXs write.
	Tags llxscx.TagSource

	eng *Engine
	ops [htm.NumPaths]uint64 // completions indexed by htm.PathKind
	// polstats counts the retry policy's actions, with atomic adds so
	// Stats may read it from a reporting goroutine. (Failed attempts have
	// no counter here: H counts them where they fail.)
	polstats PolicyStats
	// fallbackAcq counts fallback critical-section acquisitions,
	// atomically (OpStats.FallbackAcquisitions).
	fallbackAcq uint64
	// obs is the thread's flight-recorder context, nil unless the engine
	// was built with Config.Obs.
	obs *obs.ThreadObs
	// site is the fallback policy site for ops built without their own.
	site Site

	// rec is the thread's epoch-based-reclamation context, created by
	// EnableReclaim; Run brackets every operation with its Begin/End so
	// grace periods cover all node references an operation may hold.
	// pool is the node pool its expired retirees return to.
	rec  *ebr.Thread
	pool NodePool
	// fastRecycle records whether nodes removed by fast-path commits may
	// be recycled immediately (the Section 9 rule); see EnableReclaim.
	fastRecycle bool
	_           [64]byte
}

// Walk runs fn, a walk over the structure from outside any engine
// thread — a tree's KeySum, which the sharding layer's consistent cuts
// run while updaters do — inside the engine's epoch domain, on a reader
// context that walks share one at a time. The bracket stalls grace
// periods for the walk's duration, so pooled nodes cannot be reused —
// in particular, internal nodes' plain key and child arrays cannot be
// rewritten — while the walk holds references. fn must not call Walk.
func (e *Engine) Walk(fn func()) {
	e.walkMu.Lock()
	defer e.walkMu.Unlock()
	e.walker.Begin()
	defer e.walker.End()
	fn()
}

// NewThread registers a new engine thread wrapping the given HTM thread.
func (e *Engine) NewThread(h *htm.Thread) *Thread {
	e.mu.Lock()
	defer e.mu.Unlock()
	th := &Thread{H: h, eng: e, site: *NewSite()}
	if e.cfg.Obs != nil {
		th.obs = e.cfg.Obs.NewThread()
	}
	e.threads = append(e.threads, th)
	return th
}

// NodePool is what the engine needs of a handle's node pool
// (nodepool.Pool): where a retiree goes when its grace period expires,
// and the list lengths behind the reclamation gauges.
type NodePool interface {
	// Release pools a node no thread can hold any more.
	Release(x any)
	// Pooled returns the pool's list lengths; safe from any goroutine.
	Pooled() (immediate, grace, inner int)
}

// EnableReclaim creates the thread's epoch-based reclamation context in
// the engine's epoch domain: Run then brackets every operation with the
// ebr Begin/End (so grace periods cover all node references an operation
// holds), and Retire becomes usable. pool receives every node whose
// grace period expired.
func (th *Thread) EnableReclaim(pool NodePool) {
	// Stats reads both under e.mu: the thread is registered already, and
	// a handle may be created while another goroutine reports.
	th.eng.mu.Lock()
	th.pool = pool
	th.rec = th.eng.reclaim.NewThread(pool.Release)
	th.eng.mu.Unlock()
	// The Section 9 immediate-recycle rule holds for nodes removed by
	// fast-path commits exactly when every thread that could still hold a
	// reference runs transactionally, which is when the first path is
	// guarded: the fast path of 3-path and 2-path-ncon excludes the
	// fallback path via F, and TLE's elided path excludes the locked path
	// via the lock subscription. (3-path's read-only operations run
	// unsubscribed beside the fallback path, but as transactions: they
	// are among the readers that abort.) An unguarded row has no software
	// path to exclude: 2-path-con's first path is the instrumented body
	// running beside fallback-path readers, and non-htm and scx-htm commit
	// removals non-transactionally.
	th.fastRecycle = th.eng.row.soft != softLoop
}

// Immediate reports whether a node removed by an operation that
// committed on path p may be reused without a grace period — the
// Section 9 rule, for fast-path commits where the algorithm's path
// exclusion allows it (see EnableReclaim). The pool applies it only to
// nodes whose every reuse-mutable field is a transactional cell, so that
// a stale transactional reader of the reused node aborts rather than
// observe its next life; nodes carrying reuse-mutable plain fields
// always go through Retire.
func (th *Thread) Immediate(p htm.PathKind) bool {
	return th.fastRecycle && p == htm.PathFast
}

// Retire hands a node removed by a completed operation to the thread's
// reclamation context; it reaches the pool after two epochs.
func (th *Thread) Retire(x any) { th.rec.Retire(x) }

// PathCounts counts events per execution path.
type PathCounts struct {
	Fast, Middle, Fallback uint64
}

// Total sums the three paths.
func (p PathCounts) Total() uint64 { return p.Fast + p.Middle + p.Fallback }

// ReclaimStats is the state of an engine's reclamation domain: how many
// removed nodes are waiting out their grace period, and how many sit in
// the handles' free lists, by list (see nodepool). These are gauges, not
// counters: each handle's share as it last published it (ebr.Thread.Limbo,
// nodepool.Pool.Pooled).
type ReclaimStats struct {
	Limbo                                     uint64
	PooledImmediate, PooledGrace, PooledInner uint64
}

// Merge adds another snapshot into r.
func (r *ReclaimStats) Merge(o ReclaimStats) {
	r.Limbo += o.Limbo
	r.PooledImmediate += o.PooledImmediate
	r.PooledGrace += o.PooledGrace
	r.PooledInner += o.PooledInner
}

// StatsSource is implemented by the data structures that expose their
// statistics: what the public Stats, the shard layer's sums and the
// paper's Figure 16 and Section 7.2 tables read.
type StatsSource interface {
	OpStats() OpStats
}

// OpStats is the one statistics snapshot below the shard layer: the
// TM's transaction commits and failed attempts per path and cause
// (htm.Stats — the TM counts an attempt where it fails, and the engine
// keeps no second ledger of the same event; under scx-htm that includes
// the standalone SCX transactions' aborts), operation completions per
// path, retry actions, TLE lock acquisitions, and the reclamation
// domain's gauges.
type OpStats struct {
	htm.Stats
	PathCounts
	Policy               PolicyStats
	Reclaim              ReclaimStats
	FallbackAcquisitions uint64
}

// Merge adds another snapshot into s (the shard layer's aggregation).
func (s *OpStats) Merge(o OpStats) {
	s.Stats.Merge(o.Stats)
	s.Fast += o.Fast
	s.Middle += o.Middle
	s.Fallback += o.Fallback
	s.Policy.Merge(o.Policy)
	s.Reclaim.Merge(o.Reclaim)
	s.FallbackAcquisitions += o.FallbackAcquisitions
}

// Stats sums the per-thread counters — the TM's and the engine's — over
// all threads. Safe to call while threads run (the snapshot is then
// approximate).
func (e *Engine) Stats() OpStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var s OpStats
	for _, th := range e.threads {
		s.Stats.Merge(th.H.Stats())
		s.Fast += atomic.LoadUint64(&th.ops[htm.PathFast])
		s.Middle += atomic.LoadUint64(&th.ops[htm.PathMiddle])
		s.Fallback += atomic.LoadUint64(&th.ops[htm.PathFallback])
		s.Policy.addAtomic(&th.polstats)
		s.FallbackAcquisitions += atomic.LoadUint64(&th.fallbackAcq)
		if th.rec != nil {
			im, gr, in := th.pool.Pooled()
			s.Reclaim.Merge(ReclaimStats{Limbo: uint64(th.rec.Limbo()),
				PooledImmediate: uint64(im), PooledGrace: uint64(gr), PooledInner: uint64(in)})
		}
	}
	return s
}

func (th *Thread) completed(p htm.PathKind) {
	atomic.AddUint64(&th.ops[p], 1)
}

// Op supplies the bodies of one data-structure operation: one body per
// path, run in the path's mode. Bodies are invoked repeatedly (one
// invocation per attempt) and must re-read all state from the top each
// time; results are delivered through variables the closures capture.
// It is passed by value on every operation, so it is kept to one cache
// line (64 bytes).
type Op struct {
	// Fast is the uninstrumented sequential body run inside a
	// transaction (used by TLE, 2-path-ncon and 3-path). It signals a
	// logical retry by calling tx.Abort(CodeRetry); completing normally
	// commits the operation. It is also TLE's locked body, run with a nil
	// tx under the global lock — what the paper means by TLE: the same
	// sequential code, run under the lock instead of in a transaction.
	// Nothing else writes the structure while the lock is held, so a
	// body's logical retries cannot fire there; a body must not reach
	// tx.Abort with a nil tx.
	Fast func(tx *htm.Tx)
	// Middle is the instrumented body run inside a transaction (used as
	// 3-path's middle path and as 2-path-con's fast path): the template
	// with transactional LLX + SCXInTx, or a direct edit of a node's
	// fields instrumented by Prims.EditInPlace (the (a,b)-tree's updates
	// inside a leaf). An operation that writes nothing has nothing to
	// instrument and leaves it nil: Fast is then its one transactional
	// body, safe beside fallback-path SCXs as it stands.
	// 2-path-con runs it as its first path; 3-path runs it on one
	// transactional path — without the fallback-presence subscription,
	// which is all its middle path would have been, for both paths'
	// attempts — and goes from there to the fallback path.
	Middle func(tx *htm.Tx)
	// Fallback is the original lock-free template body (LLXO/SCXO). It
	// returns false to request a retry. It is also scx-htm's software
	// phase.
	Fallback func() bool
	// SCXHTM is the Section 4 attempt: the template structure with
	// non-transactional LLX and the standalone HTM SCX. It returns false
	// to request a retry. Only used by AlgSCXHTM, which budgets attempts
	// for it and then runs Fallback. Nil means the operation has no SCX to
	// accelerate: Fallback in both phases.
	SCXHTM func() bool
	// Update marks operations that may change the dictionary's logical
	// content (inserts and deletes, but not searches, range queries, or
	// content-preserving rebalancing steps). RunAt refuses them: a
	// pinned attempt is a read at a past instant.
	Update bool
	// Site carries the retry policy's per-call-site state (capacity
	// memory, backoff PRNG stream). Handles that build an Op once per
	// operation type should give it its own NewSite; nil shares the
	// engine thread's site across all of the thread's unsited ops.
	Site *Site
	// Hint is this call's transactional footprint in any unit that grows
	// with it — a range query sets hi−lo before each Run; 0 means the
	// calls at this site are all of a size. The site's capacity memory
	// learns which hints overflow the first path and keeps such calls,
	// and only them, from being attempted there (Site.capFloor).
	Hint uint64
}

// PrepareOp returns op unchanged. It is kept only because the
// repository benchmark's layer ladder (bench/layers.go) still calls it.
func (th *Thread) PrepareOp(op Op) Op { return op }

// Run executes op under the engine's algorithm and returns the path the
// operation completed on.
//
// On an observed engine (Config.Obs) Run additionally brackets the
// operation with a runtime/trace user region, captures every
// LatencySample-th operation's latency into the thread's histogram, and
// records a sampled completion event — all without allocating and
// without defers (a defer closing over locals allocates, which would
// break TestAllocGate's steady-state 0 allocs/op).
func (th *Thread) Run(op Op) htm.PathKind {
	so := th.obs
	if so == nil {
		return th.run(op)
	}
	reg := obs.StartOpRegion()
	if so.MaybeTime() {
		t0 := time.Now()
		p := th.run(op)
		so.RecordLatency(uint64(time.Since(t0)))
		so.Event(obs.EvOp, p, htm.CauseNone, 0, 0)
		obs.EndRegion(reg)
		return p
	}
	p := th.run(op)
	so.Event(obs.EvOp, p, htm.CauseNone, 0, 0)
	obs.EndRegion(reg)
	return p
}

// run is the path table interpreted: the row's first path, its middle
// path, its software path, each taken only if the one before did not
// complete the operation.
func (th *Thread) run(op Op) htm.PathKind {
	r := &th.eng.row
	if th.rec != nil {
		// Bracket the whole operation as an ebr critical section: every
		// node reference any path of the operation obtains is covered by
		// the announced epoch until End, which is what makes grace-period
		// retirement (and hence pooled-node reuse) sound.
		th.rec.Begin()
		defer th.rec.End()
	}
	switch r.first {
	case firstFast, firstInstr:
		site := op.policySite(th)
		// An op with a Middle body under a row with a middle path splits
		// the budget between the two; otherwise the first path is the
		// op's one transactional path and has all of it: its footprint
		// is what it is on any path, so a capacity abort — or the site's
		// memory of one — sends it straight to the software path.
		//
		// The look at the guard before each attempt: 3-path moves to its
		// middle path when runPath gives up on the fast path (a capacity
		// abort — the transaction cannot fit; hardware reports this via
		// the "retry" hint bit being clear), when F is held, or after its
		// half of the budget. F is looked up outside the attempt: the
		// subscription inside (firstBody) is what makes the fast path
		// safe, but a transaction begun only to find F non-zero there is
		// an abort the operation need not pay for. TLE and 2-path-ncon
		// wait for the lock or F to clear instead.
		middle := r.look == lookMoveOn && op.Middle != nil
		budget := attemptBudget
		var ready func() bool
		switch {
		case middle:
			budget /= 2
			ready = th.fallbackIdle
		case r.look == lookWait:
			ready = th.awaitGuard
		}
		first := func(tx *htm.Tx) { th.firstBody(tx, &op) }
		if !th.skipFast(site) && th.runPath(site, htm.PathFast, budget, ready, first) {
			th.completed(htm.PathFast)
			return htm.PathFast
		}
		if middle && th.runPath(site, htm.PathMiddle, budget, nil, op.Middle) {
			th.completed(htm.PathMiddle)
			return htm.PathMiddle
		}
	case firstSCXHTM:
		// Section 4: the operation structure unchanged, its SCXs
		// accelerated; an attempt that succeeds counts as a fast-path
		// completion.
		attempt := op.SCXHTM
		if attempt == nil {
			attempt = op.Fallback
		}
		for i := 0; i < attemptBudget; i++ {
			if attempt() {
				th.completed(htm.PathFast)
				return htm.PathFast
			}
		}
	}
	if r.soft == softLock {
		th.runLocked(op)
	} else {
		th.runFallbackLoop(op, r.soft == softLoopF)
	}
	return htm.PathFallback
}

// runLocked is TLE's software path: acquire the global lock and run the
// same sequential body, Fast, with a nil tx. TLE is deadlock-free but not
// lock-free: a lock holder that is descheduled or dies stops every other
// thread of the engine, which is what 3-path's middle path exists to
// avoid.
func (th *Thread) runLocked(op Op) {
	e := th.eng
	so := th.obs
	var freg *trace.Region
	if so != nil {
		freg = obs.StartFallbackRegion()
	}
	for !e.tle.CAS(nil, 0, 1) {
		runtime.Gosched()
	}
	atomic.AddUint64(&th.fallbackAcq, 1)
	if so != nil {
		so.RareEvent(obs.EvAcquire, htm.PathFallback, htm.CauseNone, 0, 0)
		obs.EndRegion(freg)
	}
	// Owner-fault seam: a Stall here models the convoy (every thread
	// blocked behind a descheduled lock holder). A Kill wedges the
	// engine by design: nothing runs beside a held TLE lock.
	e.cfg.Faults.Hit(fault.PointFallbackOwner)
	func() {
		// Release with defer: a panic out of the locked body must not
		// strand the global lock, which would wedge every thread of the
		// engine forever (elided attempts subscribe to it and the locked
		// path spins on it).
		defer e.tle.Set(nil, 0)
		op.Fast(nil)
	}()
	th.completed(htm.PathFallback)
}

// policySite resolves the Site the retry policy adapts on for this
// call — the op's own, or the thread's shared site — and tells it the
// call's footprint hint.
func (op *Op) policySite(th *Thread) *Site {
	site := op.Site
	if site == nil {
		site = &th.site
	}
	site.hint = op.Hint
	return site
}

// skipFast reports whether this call should start past the first path
// (on the middle path for a 3-path update, the software path otherwise)
// because its site's capacity memory says the footprint will not fit
// anyway, counting the demotion when it does. A skipping site still
// probes the first path on ~1/capProbeEvery such calls so the memory
// can recover.
func (th *Thread) skipFast(site *Site) bool {
	if !site.overflows() || site.rng.Uint64n(capProbeEvery) == 0 {
		return false
	}
	atomic.AddUint64(&th.polstats.Demotions, 1)
	return true
}

// fallbackIdle is a 3-path update's look at the fallback-presence
// indicator before it begins a fast-path attempt: a plain read, no
// transaction to unwind when the answer is no.
func (th *Thread) fallbackIdle() bool { return !th.eng.cfg.Indicator.Nonzero(nil) }

// runPath drives one execution path's attempt loop, reporting whether an
// attempt committed. budget bounds the budgeted attempts (spurious
// aborts get bounded free retries on top); ready, when non-nil, runs
// before every attempt and either waits until the path may be attempted
// (TLE's lock wait, 2-path-ncon's indicator wait) or returns false to
// abandon it (the 3-path fast loop's reaction to a busy fallback path,
// which is the algorithm's structure rather than retry policy: it moves
// instead of waiting).
//
// What a failed attempt does next depends on its cause, in the style of
// the per-cause retry loops production TM locks use (Cavalia's RtmLock
// is the canonical shape):
//
//   - capacity: abandon the path at once — the footprint will not
//     shrink by retrying (attemptFailed has told the site's capacity
//     memory, which makes future calls like this one start past the
//     first path);
//   - spurious: retry without consuming budget, up to freeRetries per
//     path — transient events say nothing about the attempt's odds;
//   - conflict: retry after a randomized backoff drawn from a bounded
//     exponentially growing window — the losers of a conflict spread
//     out instead of re-colliding on the same cache lines — and, when
//     the attempt lost to a commit still in flight, after that commit
//     (htm.Abort.AwaitCommit: a committer descheduled mid-commit would
//     otherwise use up the budget and send the operation to the
//     fallback path, where it waits for the same commit holding F);
//   - explicit: retry, consuming budget (logical retries are the
//     structure's business; a busy software path that showed up inside
//     the attempt is ready's to deal with before the next).
func (th *Thread) runPath(site *Site, path htm.PathKind, budget int,
	ready func() bool, body func(tx *htm.Tx)) bool {
	free := 0
	for used := 0; used < budget; {
		if ready != nil && !ready() {
			return false
		}
		ok, ab := th.H.Atomic(path, body)
		if ok {
			if path == htm.PathFast {
				site.noteFastCommit()
			}
			return true
		}
		th.attemptFailed(site, path, ab)
		switch ab.Cause {
		case htm.CauseCapacity:
			atomic.AddUint64(&th.polstats.CapacitySkips, 1)
			return false
		case htm.CauseSpurious:
			if free < freeRetries {
				free++
				atomic.AddUint64(&th.polstats.FreeRetries, 1)
				continue
			}
		case htm.CauseConflict:
			atomic.AddUint64(&th.polstats.Backoffs, 1)
			ab.AwaitCommit()
			backoffSpin(site.conflictBackoff(used))
		}
		used++
	}
	return false
}

// attemptFailed accounts for one failed transactional attempt: the
// flight recorder's abort event and the site's capacity memory (the
// per-path, per-cause count is the TM's, taken where the attempt failed).
func (th *Thread) attemptFailed(site *Site, path htm.PathKind, ab htm.Abort) {
	if so := th.obs; so != nil {
		so.Event(obs.EvAbort, path, ab.Cause, site.id, uint64(ab.Code))
	}
	if ab.Cause == htm.CauseCapacity && path == htm.PathFast {
		site.noteCapacity()
	}
}

// firstBody is what one transaction on the row's first path runs for
// op: under 2-path-con, whose first path runs beside its software path,
// the instrumented body; otherwise the subscription to what the software
// path holds — the TLE lock word, or F — unless op's first path is
// unsubscribed (pathRow.subscribes), and then the sequential body.
// Thread.run's attempt loop and RunAt's single pinned attempt both run
// exactly this.
func (th *Thread) firstBody(tx *htm.Tx, op *Op) {
	e := th.eng
	switch {
	case e.row.first == firstInstr && op.Middle != nil:
		op.Middle(tx)
		return
	case !e.row.subscribes(op):
	case e.row.soft == softLock:
		if e.tleHeld(tx) {
			tx.Abort(CodeLockHeld)
		}
	case e.cfg.Indicator.Nonzero(tx):
		tx.Abort(CodeFallbackBusy)
	}
	op.Fast(tx)
}

// awaitGuard is TLE's and 2-path-ncon's look at the guard before a
// first-path attempt: it spins, yielding, until the software path is
// empty (for 2-path-ncon this wait is the bottleneck the paper
// highlights).
func (th *Thread) awaitGuard() bool {
	e := th.eng
	held := e.cfg.Indicator.Nonzero
	if e.row.soft == softLock {
		held = e.tleHeld
	}
	for i := 0; held(nil); i++ {
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
	return true
}

// tleHeld reports whether the TLE lock is held, read in tx (nil: a plain
// read).
func (e *Engine) tleHeld(tx *htm.Tx) bool { return e.tle.Get(tx) != 0 }

// CanPin reports whether RunAt can serve this thread: the algorithm's
// first path is one transaction (non-htm has no transaction at all,
// scx-htm only inside its SCX).
func (th *Thread) CanPin() bool {
	return th.eng.row.first == firstFast || th.eng.row.first == firstInstr
}

// EnterReclaim and ExitReclaim open and close the reclamation bracket
// Run holds around every operation, for a caller that makes RunAt
// attempts: the bracket must be entered before the snapshot the attempts
// are pinned at is read, so that every node reachable at the snapshot
// outlives them.
func (th *Thread) EnterReclaim() {
	if th.rec != nil {
		th.rec.Begin()
	}
}

// ExitReclaim closes the bracket EnterReclaim opened.
func (th *Thread) ExitReclaim() {
	if th.rec != nil {
		th.rec.End()
	}
}

// RunAt makes one attempt at the read-only op on the algorithm's first
// transactional path, with the transaction's snapshot pinned at rv — a
// value of the TM's clock read inside the caller's EnterReclaim bracket.
// It is Run's fast path without Run's policy: no waiting for a busy
// software path, no retry, no later path; what a retry is, is the
// caller's decision. An attempt that commits completed the operation as
// of rv and counts as a fast-path completion. One that aborts is
// accounted like any failed attempt (attemptFailed) and reports
// dict.PinAborted — or dict.PinUnfit when the cause was capacity, which
// no retry cures. A call whose site's capacity memory says the footprint
// will not fit is not attempted at all, as Run would skip its first path.
//
// It exists for readers that hold snapshots of several engines' TMs
// taken at one instant (internal/shard); CanPin says whether the thread
// supports it.
func (th *Thread) RunAt(op *Op, rv uint64) dict.PinStatus {
	if op.Update || !th.CanPin() {
		panic("engine: RunAt of an update operation, or without a transactional first path")
	}
	site := op.policySite(th)
	if th.skipFast(site) {
		return dict.PinUnfit
	}
	ok, ab := th.H.AtomicAt(htm.PathFast, rv, func(tx *htm.Tx) { th.firstBody(tx, op) })
	if !ok {
		th.attemptFailed(site, htm.PathFast, ab)
		if ab.Cause == htm.CauseCapacity {
			return dict.PinUnfit
		}
		return dict.PinAborted
	}
	site.noteFastCommit()
	th.completed(htm.PathFast)
	if so := th.obs; so != nil {
		so.Event(obs.EvOp, htm.PathFast, htm.CauseNone, 0, 0)
	}
	return dict.PinCommitted
}

// runFallbackLoop runs the lock-free fallback body to completion,
// counted in the presence indicator F where the row keeps one (counted).
// Every lock-free software path is this loop, scx-htm's software phase
// included.
func (th *Thread) runFallbackLoop(op Op, counted bool) {
	if counted {
		ind := th.eng.cfg.Indicator
		ind.Arrive()
		defer ind.Depart()
	}
	// Owner-fault seam: the operation counts in F (where the algorithm
	// keeps one) and has done nothing yet. A Kill leaves F held forever;
	// 3-path's fast path then stops and its middle path carries the
	// updates, 2-path-con, non-htm and scx-htm have no F, and
	// 2-path-ncon's fast path waits for F to drain and so wedges by
	// design.
	th.eng.cfg.Faults.Hit(fault.PointFallbackOwner)
	for !op.Fallback() {
	}
	th.completed(htm.PathFallback)
}
