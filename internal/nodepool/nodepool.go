// Package nodepool implements the per-handle node-pooling discipline
// shared by the template data structures (paper Section 9): steady-state
// inserts draw nodes from per-thread free lists, and deletions feed the
// lists back, at once or through the engine's epoch-based reclamation.
//
// One Pool serves one handle (one goroutine); nothing here is locked.
// A pool keeps three free lists, told apart by who may still hold a node
// on them — which is what re-initializing the node costs:
//
//   - immediate: leaves removed by fast-path commits where the algorithm
//     keeps every possible reader transactional (Retirer.Immediate). They
//     skip the grace period, so a transaction that read the leaf before
//     its removal may still hold it; every reuse-mutable leaf field is a
//     transactional cell, and reuse rewrites them with version-advancing
//     Recycle stores, on which such a reader aborts.
//   - grace: leaves that waited out a grace period (or were drawn fresh
//     and never published). No reader, stale or otherwise, can hold one
//     (DEBRA's guarantee: every operation is bracketed by the engine's
//     ebr Begin/End), so reuse is plain initializing stores that touch
//     no version word — what a template-path update, which replaces a
//     leaf per operation, pays per cell.
//   - inner: internal nodes, which always wait out a grace period: their
//     routing keys are read with plain loads on the descent hot path
//     (htm.Word.Peek or plain arrays), which is only sound if no reader
//     can ever observe a reuse.
//
// Attempt lifecycle: a body draws nodes with Take (recording them in
// the attempt's allocation list) and marks the nodes it unlinks with
// Remove. Each attempt starts with BeginAttempt — nodes drawn by a
// failed previous attempt were never published, so each returns to the
// list it was drawn from, no reader the wiser — and a completed
// operation calls Settle: the committed attempt's nodes are published
// (forgotten) and its removals retire under the rules above.
package nodepool

import (
	"sync/atomic"

	"htmtree/internal/htm"
)

// Stats counts a pool's activity. Exported by the structures as their
// handle ReclaimStats.
type Stats struct {
	// Fresh counts heap allocations; Reused counts pool hits.
	Fresh, Reused uint64
	// RetiredFast counts removals recycled immediately under the
	// Section 9 fast-path rule; RetiredGrace counts removals deferred a
	// grace period.
	RetiredFast, RetiredGrace uint64
	// Freed counts nodes that came back to the pools (immediately or
	// after their grace period expired), whether a list had room for
	// them or not.
	Freed uint64
}

// Retirer is the pool's view of the handle's reclamation context;
// implemented by engine.Thread.
type Retirer interface {
	// Immediate reports whether a leaf removed by an operation that
	// completed on path p may be reused without a grace period: every
	// thread that can still hold it runs transactionally.
	Immediate(p htm.PathKind) bool
	// Retire schedules x to reach the pool's Release once no thread can
	// hold a reference to it.
	Retire(x any)
}

// The free lists, by who may still hold a node on them.
const (
	listImmediate = iota
	listGrace
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

// drawn is one node of the current attempt's allocation list and the
// free list a failed attempt returns it to.
type drawn[N any] struct {
	n    *N
	list uint8
}

// Pool is the per-handle pooling state for node type N.
type Pool[N any] struct {
	free    [numLists][]*N
	alloc   []drawn[N]
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

// New creates a pool. isLeaf routes nodes between the leaf lists and
// the inner list; fresh heap-allocates a node of the given kind with its
// cells bound to the owning TM's clock; ret is the handle's engine
// thread.
func New[N any](isLeaf func(*N) bool, fresh func(leaf bool) *N, ret Retirer) *Pool[N] {
	return &Pool[N]{isLeaf: isLeaf, fresh: fresh, ret: ret}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool[N]) Stats() Stats { return p.stats }

// Size returns the number of nodes currently in the free lists
// (white-box tests).
func (p *Pool[N]) Size() int {
	return len(p.free[listImmediate]) + len(p.free[listGrace]) + len(p.free[listInner])
}

// Pooled returns the lengths of the three free lists as the owner last
// published them — every publishEvery-th Settle, so that a reader on
// another goroutine (the engine's reclamation gauges) costs the owner no
// atomic per node. Safe from any goroutine.
func (p *Pool[N]) Pooled() (immediate, grace, inner int) {
	return int(p.pooled[listImmediate].Load()), int(p.pooled[listGrace].Load()), int(p.pooled[listInner].Load())
}

// put returns n to list l, or drops it when the list is full (maxPooled).
func (p *Pool[N]) put(l uint8, n *N) {
	if len(p.free[l]) < maxPooled {
		p.free[l] = append(p.free[l], n)
	}
}

// graceList is the list a node that no thread can hold belongs on.
func (p *Pool[N]) graceList(n *N) uint8 {
	if p.isLeaf(n) {
		return listGrace
	}
	return listInner
}

// Release receives a node whose grace period expired and pools it; it
// is the handle's ebr free callback (engine.Thread.EnableReclaim).
func (p *Pool[N]) Release(x any) {
	n := x.(*N)
	p.put(p.graceList(n), n)
	p.stats.Freed++
}

// Take draws a node of the given kind and records it in the attempt's
// allocation list: a leaf from the grace list first, then the immediate
// list; an internal node from the inner list; either from the heap when
// its lists are empty. stale reports that the node skipped its grace
// period, so a transaction that read it in its previous life may still
// hold it: the caller must re-initialize its cells with
// version-advancing Recycle stores. Every other node — fresh or
// grace-released — is out of every thread's reach, and plain Init stores
// suffice.
func (p *Pool[N]) Take(leaf bool) (n *N, stale bool) {
	from := uint8(listInner)
	if leaf {
		from = listGrace
		if len(p.free[listGrace]) == 0 && len(p.free[listImmediate]) > 0 {
			from = listImmediate
		}
	}
	if l := p.free[from]; len(l) > 0 {
		n = l[len(l)-1]
		l[len(l)-1] = nil
		p.free[from] = l[:len(l)-1]
		p.stats.Reused++
	} else {
		n = p.fresh(leaf)
		p.stats.Fresh++
	}
	p.alloc = append(p.alloc, drawn[N]{n: n, list: from})
	return n, from == listImmediate
}

// BeginAttempt resets the per-attempt state: nodes drawn by a previous
// attempt of this operation were never published (the attempt aborted
// or its SCX failed), so each returns to the list it was drawn from —
// whoever could hold it before still can, nobody new — and the previous
// attempt's removal list is discarded.
func (p *Pool[N]) BeginAttempt() {
	for i, d := range p.alloc {
		p.put(d.list, d.n)
		p.alloc[i] = drawn[N]{}
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
// nodes are published (forgotten) and its removed nodes retire — leaves
// straight onto the immediate list when the completing path permits,
// everything else through a grace period.
func (p *Pool[N]) Settle(path htm.PathKind) {
	for i := range p.alloc {
		p.alloc[i] = drawn[N]{}
	}
	p.alloc = p.alloc[:0]
	immediate := len(p.removed) > 0 && p.ret.Immediate(path)
	for i, n := range p.removed {
		if immediate && p.isLeaf(n) {
			p.put(listImmediate, n)
			p.stats.RetiredFast++
			p.stats.Freed++
		} else {
			p.ret.Retire(n)
			p.stats.RetiredGrace++
		}
		p.removed[i] = nil
	}
	p.removed = p.removed[:0]
	if p.settles++; p.settles%publishEvery == 0 {
		for l := range p.free {
			p.pooled[l].Store(int64(len(p.free[l])))
		}
	}
}
