// Package dict defines the ordered-dictionary abstraction shared by the
// paper's data structures (Section 6): a set of uint64 keys with
// associated uint64 values, supporting Insert, Delete, Search and
// RangeQuery, plus the quiescent checksum the evaluation methodology
// (Section 7.1) uses for validation.
package dict

// KV is a key-value pair returned by range queries.
type KV struct {
	Key, Val uint64
}

// MaxKey is the largest key a client may use. Larger values are reserved
// for the data structures' internal sentinels.
const MaxKey = ^uint64(0) - 8

// Agg is the aggregate tuple of a key range: the sum and count of the
// keys, and the smallest and largest key. Min and Max are meaningful
// only when Count > 0; an empty range holds the sentinels
// Min = ^uint64(0), Max = 0 (no client key is ^uint64(0), and a true
// maximum of 0 coincides with the sentinel harmlessly).
type Agg struct {
	Sum, Count, Min, Max uint64
}

// Merge folds o into a: afterwards a is the tuple of the union of the
// two key sets, which must be disjoint.
func (a *Agg) Merge(o Agg) {
	a.Sum += o.Sum
	a.Count += o.Count
	if o.Count > 0 {
		if o.Min < a.Min {
			a.Min = o.Min
		}
		if o.Max > a.Max {
			a.Max = o.Max
		}
	}
}

// Add folds one key into a.
func (a *Agg) Add(k uint64) {
	a.Sum += k
	a.Count++
	a.Min, a.Max = min(a.Min, k), max(a.Max, k)
}

// Fold returns the aggregate tuple of the keys in kvs, which must be in
// ascending key order, as RangeQuery returns them.
func Fold(kvs []KV) Agg {
	a := Agg{Min: ^uint64(0)}
	if len(kvs) == 0 {
		return a
	}
	for _, p := range kvs {
		a.Sum += p.Key
	}
	a.Count = uint64(len(kvs))
	a.Min, a.Max = kvs[0].Key, kvs[len(kvs)-1].Key
	return a
}

// AggHandle is optionally implemented by handles that answer aggregate
// range queries. Every implementation folds the pairs its own
// RangeQuery would return (Agg.Add, Fold), so a query costs what the
// range query over the same window costs, and is exactly as atomic. The
// error is always nil for unsharded trees; the sharded dictionary
// rejects aggregate queries when its configuration cannot make them
// atomic.
type AggHandle interface {
	// RangeAgg returns the aggregate tuple of the keys in [lo, hi).
	RangeAgg(lo, hi uint64) (Agg, error)
}

// PinStatus is the outcome of one pinned read (PinnedReader).
type PinStatus uint8

const (
	// PinCommitted: the read ran as one transaction at the pinned
	// snapshot, and its result is the dictionary's state at that
	// snapshot.
	PinCommitted PinStatus = iota
	// PinAborted: the transaction aborted — a cell it reached was written
	// after the snapshot, or a software path it may not overlap was busy.
	// The result is meaningless; an attempt at a fresh snapshot may commit.
	PinAborted
	// PinUnfit: the read does not fit a transaction here (its footprint
	// exceeds the TM's capacity). Retrying pinned is pointless; the caller
	// should read some other way.
	PinUnfit
)

// PinnedReader is optionally implemented by handles of a dictionary that
// can run a read as a single transaction at a snapshot of the version
// clock the caller took earlier (htm.Pin). Every dictionary on the
// simulated TM shares that clock, so reads of several dictionaries at
// one snapshot are together the state of all of them at one instant —
// the sharded dictionary's atomic cross-shard read. The protocol for one
// such read is PinEnter on every handle involved, then one htm.Pin,
// then the reads at the value it returned, then PinExit.
type PinnedReader interface {
	// Pinnable reports whether the handle serves pinned reads at all; it
	// does not when its dictionary's algorithm has no transactional path
	// a whole read runs on. The other methods must not be called on a
	// handle that is not pinnable.
	Pinnable() bool
	// PinEnter enters, and PinExit leaves, the bracket that keeps every
	// node reachable at a snapshot taken inside it from being reused. It
	// must be entered before the snapshot is taken and held across the
	// reads.
	PinEnter()
	PinExit()
	// RangeQueryAt is Handle.RangeQuery as of snapshot rv. Unless the
	// status is PinCommitted, out is returned unextended.
	RangeQueryAt(rv, lo, hi uint64, out []KV) ([]KV, PinStatus)
	// RangeAggAt is AggHandle.RangeAgg as of snapshot rv. The tuple is
	// meaningful only when the status is PinCommitted.
	RangeAggAt(rv, lo, hi uint64) (Agg, PinStatus)
}

// Handle is a per-thread handle to a dictionary. A Handle must be used
// by one goroutine at a time; create one per worker.
type Handle interface {
	// Insert associates key with val, returning the previous value and
	// whether the key was already present.
	Insert(key, val uint64) (old uint64, existed bool)
	// Delete removes key, returning its value and whether it was present.
	Delete(key uint64) (old uint64, existed bool)
	// Search returns the value associated with key, if present.
	Search(key uint64) (val uint64, found bool)
	// RangeQuery appends all pairs with lo <= key < hi to out (in
	// ascending key order) and returns the extended slice.
	RangeQuery(lo, hi uint64, out []KV) []KV
}

// Dict is a concurrent ordered dictionary.
type Dict interface {
	// NewHandle registers a new per-thread handle.
	NewHandle() Handle
	// KeySum returns the sum and count of the keys present. It must only
	// be called while no operations are in flight; it is the checksum
	// the paper's key-sum validation compares against.
	KeySum() (sum, count uint64)
}

// OpKind names a batched point operation.
type OpKind uint8

// Batched point-operation kinds.
const (
	OpInsert OpKind = iota + 1
	OpDelete
	OpSearch
)

// BatchOp is one point operation inside a batched group: the request
// fields (Kind, Key, Val) are filled by the batching layer, and the
// executor writes the operation's result into Out/OutOK — the (old,
// existed) pair for Insert and Delete, the (val, found) pair for
// Search — exactly as the corresponding Handle method would have
// returned it.
type BatchOp struct {
	Kind     OpKind
	Key, Val uint64
	Out      uint64
	OutOK    bool
}

// Exec runs op against h and records the result, preserving each
// method's return contract. It is the per-op building block group
// executors and the batching layer's fallback path share.
func (op *BatchOp) Exec(h Handle) {
	switch op.Kind {
	case OpInsert:
		op.Out, op.OutOK = h.Insert(op.Key, op.Val)
	case OpDelete:
		op.Out, op.OutOK = h.Delete(op.Key)
	case OpSearch:
		op.Out, op.OutOK = h.Search(op.Key)
	}
}

// GroupExecutor is optionally implemented by handles that can execute a
// key-sorted group of point operations with amortized per-operation
// overhead (the shard layer's handles: one routing decision and one
// monitor admission per shard-group instead of per op). Ops
// sharing a key must keep their relative order — callers sort the
// group stably by key — and results are written into the slice
// elements. The batching layer falls back to executing ops one by one
// through the plain Handle methods when a handle does not implement it.
type GroupExecutor interface {
	ExecGroup(ops []BatchOp)
}
