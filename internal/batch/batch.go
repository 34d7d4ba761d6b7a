// Package batch implements the asynchronous, batched operation layer
// over a dictionary handle: point operations (Insert/Delete/Search)
// enqueue into a per-pipeline buffer and return a Promise immediately;
// when the buffer reaches Config.MaxOps (or the client flushes
// explicitly, or a Promise is waited on), the whole buffer is sorted
// stably by key and executed as one group.
//
// The point is amortization: the template's per-operation cost is
// dominated by fixed overhead — handle dispatch, router lookup, and (on
// sharded trees with atomic range queries) a monitor admission per
// operation (Brown, PODC 2017, Section 7 measures exactly this fixed
// cost dominating at low contention). A handle that implements
// dict.GroupExecutor (the shard layer's) receives the sorted group
// whole and pays one routing decision and one monitor admission per
// shard-group instead of per op; any other handle still gains the
// sorted key locality (adjacent keys traverse overlapping tree paths,
// so the simulated HTM's read sets stay warm) with ops executed one by
// one.
//
// # Ordering semantics
//
// A batch may reorder operations on different keys: execution order is
// stable-sorted by key, then grouped by owning shard. Operations on the
// same key keep their enqueue order (the sort is stable and a key's ops
// all land in the same shard-group), so every promise resolves to the
// value its operation would have seen in a sequential execution that
// preserves per-key program order — which, for a dictionary, determines
// every point result uniquely. Range queries are the sync points: an
// asynchronous RangeQuery first flushes the buffered point ops
// (read-your-writes), runs immediately, and returns an
// already-completed promise.
package batch

import (
	"slices"
	"sync"
	"sync/atomic"

	"htmtree/internal/dict"
	"htmtree/internal/fault"
)

// DefaultMaxOps is the flush threshold when Config.MaxOps is zero.
const DefaultMaxOps = 64

// Config tunes a Pipeline.
type Config struct {
	// MaxOps is the buffer size that triggers a flush (default
	// DefaultMaxOps). 1 degenerates to synchronous execution through
	// the batching machinery.
	MaxOps int
	// Counters, when non-nil, aggregates this pipeline's flush activity
	// into a shared sink (the tree-level Stats.Batch, beside the group
	// executor's counts); nil keeps the counts pipeline-private.
	Counters *Counters
	// Faults, when non-nil, arms fault.PointBatchFlush: an injected
	// stall at the head of each flush delays every Promise of the
	// group — the chaos harness's model of a stuck ingress queue.
	Faults *fault.Plan
}

// Counters aggregates batched execution activity, safe for concurrent
// pipelines — and the group executor they flush into — to share. Each
// field counts what the Stats field of the same name reports.
type Counters struct {
	Flushes, BatchedOps                        atomic.Uint64
	SizeFlushes, ExplicitFlushes, RangeFlushes atomic.Uint64
	Groups, GroupOps                           atomic.Uint64
}

// Stats is a Counters snapshot. The amortization batching exists for
// reads off directly: an unbatched stream pays one router lookup (and,
// on a sharded tree with atomic range queries, one monitor admission)
// per operation, while group execution pays one of each per group, so
// GroupOps/Groups is the factor by which batching cut that per-operation
// overhead.
type Stats struct {
	// Flushes counts non-empty buffer flushes and BatchedOps the point
	// operations they carried (BatchedOps/Flushes is the realized mean
	// batch size).
	Flushes, BatchedOps uint64
	// SizeFlushes, ExplicitFlushes and RangeFlushes split Flushes by
	// trigger: the MaxOps threshold, an explicit Flush or Wait, and a
	// flushing RangeQuery.
	SizeFlushes, ExplicitFlushes, RangeFlushes uint64
	// Groups counts the per-shard groups a dict.GroupExecutor executed
	// flushed batches as — one routing decision each — and GroupOps the
	// operations they carried (GroupOps/Groups is the realized per-shard
	// locality); zero unless the handle is a group executor (a sharded
	// tree's).
	Groups, GroupOps uint64
}

// Snapshot returns the current counts. Safe to call while pipelines
// run (the snapshot is then approximate).
func (c *Counters) Snapshot() Stats {
	return Stats{
		Flushes:         c.Flushes.Load(),
		BatchedOps:      c.BatchedOps.Load(),
		SizeFlushes:     c.SizeFlushes.Load(),
		ExplicitFlushes: c.ExplicitFlushes.Load(),
		RangeFlushes:    c.RangeFlushes.Load(),
		Groups:          c.Groups.Load(),
		GroupOps:        c.GroupOps.Load(),
	}
}

// RangePromise is the future of an asynchronous range query.
type RangePromise = Promise[[]dict.KV]

// pending is one buffered operation and its promise.
type pending struct {
	op dict.BatchOp
	pr *PointPromise
}

// Pipeline buffers asynchronous operations over one dictionary handle.
// A promise may be waited on from a goroutine other than the enqueueing
// one, and waiting flushes, so the underlying handle is only ever driven
// under the pipeline lock, satisfying its one-goroutine-at-a-time
// contract. Sharing one Pipeline between several enqueueing goroutines
// is legal but serializes them; the intended shape is one pipeline per
// worker, like handles.
type Pipeline struct {
	h   dict.Handle
	ge  dict.GroupExecutor // non-nil when h supports group execution
	cfg Config
	ctr *Counters

	mu   sync.Mutex
	pend []pending
	ops  []dict.BatchOp // execution scratch, reused across flushes
	slab []PointPromise // block-allocated promises (one alloc per batch, not per op)
}

// New builds a pipeline over h. If h implements dict.GroupExecutor
// (shard-layer handles do), flushed groups execute through it with
// amortized routing and admission; otherwise ops execute one by one in
// sorted order.
func New(h dict.Handle, cfg Config) *Pipeline {
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = DefaultMaxOps
	}
	ctr := cfg.Counters
	if ctr == nil {
		ctr = &Counters{}
	}
	ge, _ := h.(dict.GroupExecutor)
	return &Pipeline{h: h, ge: ge, cfg: cfg, ctr: ctr}
}

// Insert enqueues an asynchronous insert. The promise resolves to the
// previous value and whether the key already existed, as Handle.Insert
// would have returned at the operation's place in the batch.
func (p *Pipeline) Insert(key, val uint64) *PointPromise {
	return p.add(dict.BatchOp{Kind: dict.OpInsert, Key: key, Val: val})
}

// Delete enqueues an asynchronous delete; the promise resolves to the
// removed value and whether the key was present.
func (p *Pipeline) Delete(key uint64) *PointPromise {
	return p.add(dict.BatchOp{Kind: dict.OpDelete, Key: key})
}

// Search enqueues an asynchronous search; the promise resolves to the
// value found and whether the key was present at the operation's place
// in the batch (a search enqueued after an insert of the same key sees
// that insert).
func (p *Pipeline) Search(key uint64) *PointPromise {
	return p.add(dict.BatchOp{Kind: dict.OpSearch, Key: key})
}

// RangeQuery runs an asynchronous range query over [lo, hi). It first
// flushes the buffered point operations, so the result reflects the
// pipeline's own pending writes. The query executes before RangeQuery
// returns; the promise is already completed and exists for API symmetry
// (OnComplete chains).
func (p *Pipeline) RangeQuery(lo, hi uint64) *RangePromise {
	pr := newPromise[[]dict.KV](nil)
	p.mu.Lock()
	ready := p.flushLocked(&p.ctr.RangeFlushes)
	out := p.h.RangeQuery(lo, hi, nil)
	p.mu.Unlock()
	finish(ready)
	pr.complete(out)
	return pr
}

// Flush executes every buffered operation now and completes its
// promise. Flushing an empty pipeline is a no-op (no group executes,
// no counter moves).
func (p *Pipeline) Flush() {
	p.mu.Lock()
	ready := p.flushLocked(&p.ctr.ExplicitFlushes)
	p.mu.Unlock()
	finish(ready)
}

// Pending returns the number of buffered, not yet executed operations.
func (p *Pipeline) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pend)
}

func (p *Pipeline) add(op dict.BatchOp) *PointPromise {
	p.mu.Lock()
	if len(p.slab) == 0 {
		p.slab = make([]PointPromise, p.cfg.MaxOps)
		for i := range p.slab {
			p.slab[i].fl = p
		}
	}
	pr := &p.slab[0]
	p.slab = p.slab[1:]
	p.pend = append(p.pend, pending{op: op, pr: pr})
	if len(p.pend) >= p.cfg.MaxOps {
		ready := p.flushLocked(&p.ctr.SizeFlushes)
		p.mu.Unlock()
		finish(ready)
		return pr
	}
	p.mu.Unlock()
	return pr
}

// flushLocked sorts and executes the buffered group under the pipeline
// lock and hands back the executed entries; the caller completes their
// promises after unlocking (a completion callback may Wait on another
// promise of this pipeline, which re-enters the lock). cause is the
// per-trigger counter to credit; an empty buffer executes nothing and
// credits nothing.
func (p *Pipeline) flushLocked(cause *atomic.Uint64) []pending {
	if len(p.pend) == 0 {
		return nil
	}
	// Flush-delay fault seam: the group is about to execute; an
	// injected stall holds the pipeline lock and every buffered
	// Promise for the duration.
	p.cfg.Faults.Hit(fault.PointBatchFlush)
	ready := p.pend
	p.pend = make([]pending, 0, p.cfg.MaxOps)
	// Stable by key: ops on the same key keep enqueue order, which is
	// what makes the batch's per-op results well-defined.
	slices.SortStableFunc(ready, func(a, b pending) int {
		switch {
		case a.op.Key < b.op.Key:
			return -1
		case a.op.Key > b.op.Key:
			return 1
		default:
			return 0
		}
	})
	ops := p.ops[:0]
	for i := range ready {
		ops = append(ops, ready[i].op)
	}
	if p.ge != nil {
		p.ge.ExecGroup(ops)
	} else {
		for i := range ops {
			ops[i].Exec(p.h)
		}
	}
	for i := range ready {
		ready[i].op = ops[i]
	}
	p.ops = ops[:0]
	p.ctr.Flushes.Add(1)
	p.ctr.BatchedOps.Add(uint64(len(ready)))
	cause.Add(1)
	return ready
}

// finish completes the promises of an executed group.
func finish(ready []pending) {
	for i := range ready {
		ready[i].pr.complete(PointResult{Val: ready[i].op.Out, OK: ready[i].op.OutOK})
	}
}
