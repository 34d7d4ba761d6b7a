// Package nodepool implements the per-handle node-pooling discipline
// shared by the template data structures (paper Section 9): steady-state
// inserts draw nodes from per-thread free lists, and deletions feed the
// lists back through the engine's epoch-based reclamation.
//
// One Pool serves one handle (one goroutine); nothing here is locked.
// There is one rule: every removed node waits out a grace period before
// it returns to a list (DEBRA's guarantee: every operation is bracketed
// by the engine's ebr Begin/End, so once two epochs pass no thread can
// hold the node). A node on a list is therefore out of every thread's
// reach, and reuse is plain initializing stores that touch no version
// word — the same as for a fresh node. A pool keeps two lists, one per
// node kind, because an insert asks for a node of a given kind: leaves,
// and internal nodes.
//
// Attempt lifecycle: a body draws nodes with Take (recording them in
// the attempt's allocation list) and marks the nodes it unlinks with
// Remove. Each attempt starts with BeginAttempt — nodes drawn by a
// failed previous attempt were never published, so each returns to its
// list, no reader the wiser — and a completed operation calls Settle:
// the committed attempt's nodes are published (forgotten) and its
// removals retire.
package nodepool

import "sync/atomic"

// Stats counts a pool's activity. Exported by the structures as their
// handle ReclaimStats.
type Stats struct {
	// Fresh counts heap allocations; Reused counts pool hits.
	Fresh, Reused uint64
	// Retired counts removals handed to the grace period.
	Retired uint64
	// Freed counts nodes that came back to the pools after their grace
	// period expired, whether a list had room for them or not.
	Freed uint64
}

// Retirer is the pool's view of the handle's reclamation context;
// implemented by engine.Thread.
type Retirer interface {
	// Retire schedules x to reach the pool's Release once no thread can
	// hold a reference to it.
	Retire(x any)
}

// The free lists, by node kind.
const (
	listLeaf = iota
	listInner
	numLists
)

// publishEvery is how many Settles pass between publications of the
// list lengths (Pooled).
const publishEvery = 64

// maxPooled bounds each free list. The lists exist to carry the nodes in
// circulation between removal and reuse — a steady-state epoch delivers
// tens — but with nothing to bound them they also keep, for the life of
// the handle, the debris of its worst stall: while a reader sits
// preempted inside its reclamation bracket nothing retired can be
// reused, every node drawn is a fresh one, and when the reader moves on
// the whole backlog arrives at once (the limbo gauge shows it: over a
// thousand nodes behind one preempted scan). Past the bound a returning
// node is left to the garbage collector instead.
const maxPooled = 256

// Pool is the per-handle pooling state for node type N.
type Pool[N any] struct {
	free    [numLists][]*N
	alloc   []*N
	removed []*N
	stats   Stats
	// pooled holds the list lengths as of the last publication; settles
	// counts Settles towards the next.
	pooled  [numLists]atomic.Int64
	settles uint

	isLeaf func(*N) bool
	fresh  func(leaf bool) *N
	ret    Retirer
}

// New creates a pool. isLeaf routes nodes between the leaf list and
// the inner list; fresh heap-allocates a node of the given kind; ret is
// the handle's engine thread.
func New[N any](isLeaf func(*N) bool, fresh func(leaf bool) *N, ret Retirer) *Pool[N] {
	return &Pool[N]{isLeaf: isLeaf, fresh: fresh, ret: ret}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool[N]) Stats() Stats { return p.stats }

// Size returns the number of nodes currently in the free lists
// (white-box tests).
func (p *Pool[N]) Size() int { return len(p.free[listLeaf]) + len(p.free[listInner]) }

// Pooled returns the lengths of the two free lists as the owner last
// published them — every publishEvery-th Settle, so that a reader on
// another goroutine (the engine's reclamation gauges) costs the owner no
// atomic per node. Safe from any goroutine.
func (p *Pool[N]) Pooled() (leaves, inner int) {
	return int(p.pooled[listLeaf].Load()), int(p.pooled[listInner].Load())
}

// put returns n to the list of its kind, or drops it when the list is
// full (maxPooled).
func (p *Pool[N]) put(n *N) {
	l := listInner
	if p.isLeaf(n) {
		l = listLeaf
	}
	if len(p.free[l]) < maxPooled {
		p.free[l] = append(p.free[l], n)
	}
}

// Release receives a node whose grace period expired and pools it; it
// is the handle's ebr free callback (engine.Thread.EnableReclaim).
func (p *Pool[N]) Release(x any) {
	p.put(x.(*N))
	p.stats.Freed++
}

// Take draws a node of the given kind from its list, or from the heap
// when the list is empty, and records it in the attempt's allocation
// list. Either way no other thread can hold the node, so the caller
// initializes its cells with plain Init stores.
func (p *Pool[N]) Take(leaf bool) *N {
	from := listInner
	if leaf {
		from = listLeaf
	}
	var n *N
	if l := p.free[from]; len(l) > 0 {
		n = l[len(l)-1]
		l[len(l)-1] = nil
		p.free[from] = l[:len(l)-1]
		p.stats.Reused++
	} else {
		n = p.fresh(leaf)
		p.stats.Fresh++
	}
	p.alloc = append(p.alloc, n)
	return n
}

// BeginAttempt resets the per-attempt state: nodes drawn by a previous
// attempt of this operation were never published (the attempt aborted
// or its SCX failed), so each returns to its list, and the previous
// attempt's removal list is discarded.
func (p *Pool[N]) BeginAttempt() {
	for i, n := range p.alloc {
		p.put(n)
		p.alloc[i] = nil
	}
	p.alloc = p.alloc[:0]
	p.removed = p.removed[:0]
}

// Remove records that the current attempt unlinks n; if the attempt
// commits, Settle retires n.
func (p *Pool[N]) Remove(n *N) {
	p.removed = append(p.removed, n)
}

// Settle finishes a completed operation: the committed attempt's drawn
// nodes are published (forgotten) and its removed nodes retire through
// a grace period.
func (p *Pool[N]) Settle() {
	for i := range p.alloc {
		p.alloc[i] = nil
	}
	p.alloc = p.alloc[:0]
	for i, n := range p.removed {
		p.ret.Retire(n)
		p.stats.Retired++
		p.removed[i] = nil
	}
	p.removed = p.removed[:0]
	if p.settles++; p.settles%publishEvery == 0 {
		for l := range p.free {
			p.pooled[l].Store(int64(len(p.free[l])))
		}
	}
}
