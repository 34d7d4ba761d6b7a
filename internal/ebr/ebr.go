// Package ebr implements DEBRA-style epoch-based reclamation (Brown,
// PODC 2015), the scheme the paper's experiments used.
//
// Go's garbage collector makes reclamation optional, so this package is
// used for node pooling (internal/nodepool): Retire defers a removed
// node's reuse until two epoch advances guarantee no thread still holds
// a reference. Every removed node takes that path, whatever execution
// path removed it.
package ebr

import (
	"sync"
	"sync/atomic"

	"htmtree/internal/fault"
)

// advanceEvery is how many retirements a thread performs between
// attempts to advance the global epoch.
const advanceEvery = 32

// Manager coordinates epochs across threads.
type Manager struct {
	epoch atomic.Uint64
	// faults arms fault.PointEBRPin (SetFaults): a stall injected right
	// after a thread pins its epoch, which lags the global epoch and
	// starves every other thread's grace periods for the duration.
	faults *fault.Plan

	mu      sync.Mutex
	threads []*Thread
}

// New creates a manager. The free callback receives every object whose
// grace period has expired (typically returning it to a pool).
func New() *Manager {
	m := &Manager{}
	m.epoch.Store(1)
	return m
}

// Thread is a per-goroutine reclamation context. Its owner stores ann
// twice per operation and reads faults once, so the padding at both ends
// keeps every field off the cache lines of whatever the allocator packs
// next to it: two handles' contexts sit side by side in one size class,
// and without it one thread's announcements land in the line the other
// reads on every Begin (measured: 20 % of ab-lookup, 10 % of ab-update).
type Thread struct {
	_       [cacheLine]byte
	m       *Manager
	ann     atomic.Uint64 // announced epoch<<1 | active
	bags    [3][]any
	bagEra  [3]uint64
	lastE   uint64 // epoch last seen by Begin (drain gating)
	retires int
	// limbo is the number of retirees in the bags as the owner last
	// published it: when bags are flushed and on every advanceEvery-th
	// retirement, so a reader on another goroutine (Limbo) costs the
	// owner no atomic per retirement.
	limbo  atomic.Int64
	free   func(any)
	faults *fault.Plan // cached Manager.faults; Begin is per-op hot
	_      [cacheLine]byte
}

const cacheLine = 64

// SetFaults arms the manager's fault-injection seam. Call before any
// NewThread; threads created earlier do not observe the plan.
func (m *Manager) SetFaults(p *fault.Plan) { m.faults = p }

// NewThread registers a thread whose expired retirees are passed to
// free.
func (m *Manager) NewThread(free func(any)) *Thread {
	t := &Thread{m: m, free: free, faults: m.faults}
	m.mu.Lock()
	m.threads = append(m.threads, t)
	m.mu.Unlock()
	return t
}

// Begin enters an operation: the thread announces the current epoch and
// becomes visible to grace-period computations. Operations must be
// bracketed Begin/End and must not nest. Bags are only scanned when the
// epoch moved since the previous Begin, which keeps the per-operation
// cost of an idle reclamation domain at two atomic operations.
func (t *Thread) Begin() {
	e := t.m.epoch.Load()
	t.ann.Store(e<<1 | 1)
	if t.faults != nil {
		// Pin-stall seam: the thread is announced in epoch e; a stall
		// here holds the global epoch back (tryAdvance skips past no
		// active lagging thread), so reclamation everywhere waits.
		t.faults.Hit(fault.PointEBRPin)
	}
	if e != t.lastE {
		t.lastE = e
		t.drain(e)
	}
}

// End leaves the operation.
func (t *Thread) End() {
	t.ann.Store(t.ann.Load() &^ 1)
}

// Retire schedules x for recycling once no thread can still hold a
// reference obtained before this call (two epoch advances).
func (t *Thread) Retire(x any) {
	e := t.m.epoch.Load()
	i := e % 3
	if t.bagEra[i] != e {
		// The bag holds retirees from an epoch that is at least 3 old:
		// their grace period has long expired.
		t.flush(i)
		t.bagEra[i] = e
	}
	t.bags[i] = append(t.bags[i], x)
	t.retires++
	if t.retires%advanceEvery == 0 {
		t.publishLimbo()
		t.tryAdvance()
	}
}

// Limbo returns how many of the thread's retirees were waiting out
// their grace period when it last published the count (at most
// advanceEvery retirements ago). Safe from any goroutine.
func (t *Thread) Limbo() int { return int(t.limbo.Load()) }

func (t *Thread) publishLimbo() {
	t.limbo.Store(int64(len(t.bags[0]) + len(t.bags[1]) + len(t.bags[2])))
}

// drain frees bags whose grace period expired as of epoch e.
func (t *Thread) drain(e uint64) {
	for i := uint64(0); i < 3; i++ {
		if t.bagEra[i] != 0 && e >= t.bagEra[i]+2 {
			t.flush(i)
		}
	}
}

func (t *Thread) flush(i uint64) {
	for _, x := range t.bags[i] {
		t.free(x)
	}
	// The bag's backing array is as long as its worst backlog and lives
	// as long as the thread: zero it, or it pins every retiree the free
	// callback chose not to keep.
	clear(t.bags[i])
	t.bags[i] = t.bags[i][:0]
	t.bagEra[i] = 0
	t.publishLimbo()
}

// tryAdvance advances the global epoch when every active thread has
// announced it.
func (t *Thread) tryAdvance() {
	e := t.m.epoch.Load()
	t.m.mu.Lock()
	threads := t.m.threads
	t.m.mu.Unlock()
	for _, o := range threads {
		a := o.ann.Load()
		if a&1 == 1 && a>>1 != e {
			return // an active thread lags; no new grace period yet
		}
	}
	t.m.epoch.CompareAndSwap(e, e+1)
}
