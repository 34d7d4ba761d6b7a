package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Backend is the transactional-memory implementation behind a TM: how a
// transaction begins, which accesses it admits, how it commits, and how
// an attempt — committed or aborted — is torn down. Thread.Atomic and
// the transaction log drive whichever Backend the TM was built with, so
// the execution-path policies layered on top (internal/engine) are
// backend-agnostic.
//
// The contract mirrors a hardware TM attempt:
//
//   - Begin is called once per attempt, after the transaction log has
//     been cleared, and must establish the attempt's snapshot (for the
//     simulator, read the version clock into tx.rv).
//   - Admit is called before each transactional access is appended to
//     the read or write set (write says which; n is the set's current
//     size). It either returns, admitting the access, or aborts the
//     attempt by panicking through tx.abort — this is where capacity
//     limits and injected spurious failures live.
//   - Commit is called after the transaction body returns normally. It
//     returns CauseNone on success or the abort cause otherwise, and on
//     failure must leave shared memory untouched (attempts are all-or-
//     nothing, like XBEGIN/XEND).
//   - End is called exactly once per attempt, after commit or abort —
//     including aborts raised by foreign panics unwinding the body — so
//     a backend that acquired a resource in Begin can always release it.
//
// Implementations must be safe for concurrent use by all threads of
// their TM; per-attempt state belongs on the Tx.
//
// # Native RTM seam
//
// A real hardware backend (Intel RTM via XBEGIN/XEND, or POWER tbegin.)
// would slot in here as a third implementation with Begin issuing the
// begin instruction through a //go:noescape assembly stub (e.g.
// rtm_amd64.s behind a build tag), Admit a no-op (the cache tracks the
// working set), Commit issuing XEND, and the abort status word decoded
// into an Abort{Cause, Code} — _XABORT_CONFLICT → CauseConflict,
// _XABORT_CAPACITY → CauseCapacity, _XABORT_EXPLICIT → CauseExplicit
// with the xabort immediate in Code, anything else → CauseSpurious.
// The blocker is not this seam but Go itself: goroutines migrate OS
// threads at preemption points, and an open hardware transaction cannot
// survive a migration, so a native backend additionally needs
// runtime.LockOSThread bracketing and a guarantee of no function calls
// that might grow the stack inside the transaction body.
type Backend interface {
	// Name identifies the backend in diagnostics and benchmark output.
	Name() string
	// Begin starts one attempt (establish the snapshot, acquire any
	// backend-wide resource).
	Begin(tx *Tx)
	// Admit vets one transactional access before it joins the read
	// (write=false) or write (write=true) set of current size n; it
	// aborts the attempt via tx.abort instead of returning to reject it.
	Admit(tx *Tx, write bool, n int)
	// Commit attempts to make the buffered write set visible atomically,
	// returning CauseNone on success.
	Commit(tx *Tx) AbortCause
	// End tears down the attempt; committed reports whether Commit
	// succeeded. Called exactly once per Begin, on every exit route.
	End(tx *Tx, committed bool)
	// Announce notifies the backend that a fallback operation was
	// announced in the TM's slot (a != nil) or retracted (a == nil),
	// bracketing the window in which blocked threads should help
	// instead of waiting. Calls are balanced: one nil per non-nil.
	Announce(a Announced)
	// Help runs the TM's announced operation, if any, on behalf of th,
	// reporting whether it helped. Backends that can block in Begin
	// call th.runHelp while waiting; this method is the engine-facing
	// entry used by retry policies (via Thread.Help).
	Help(th *Thread) bool
}

// BackendKind selects one of the built-in Backend implementations.
type BackendKind uint8

// Built-in backends.
const (
	// BackendSim is the default TL2-flavoured simulator: optimistic
	// per-cell versioning with configurable capacity limits and spurious
	// abort injection (see the package comment).
	BackendSim BackendKind = iota
	// BackendTLELock runs every transaction of the TM under a single
	// mutex — transactional lock elision without the elision, the
	// classic software substitute on machines with no TM at all.
	// Transactions never conflict with each other and have no footprint
	// limit, so capacity and spurious aborts cannot occur; commit still
	// runs the simulator's versioned protocol so transactions stay
	// strongly atomic with respect to non-transactional cell operations
	// (fallback-path code does not take the mutex).
	BackendTLELock
)

// String returns the backend's name.
func (k BackendKind) String() string {
	switch k {
	case BackendTLELock:
		return "tle-lock"
	default:
		return "sim"
	}
}

// simBackend is the TL2-flavoured simulator described in the package
// comment. It is stateless (everything lives on the TM and Tx), so one
// shared instance serves every TM. Its methods are one-line calls of
// the Tx methods that do the work; when a TM runs on it (Tx.sim),
// Thread.Atomic and Tx.admit call those directly, which keeps begin,
// admission and commit devirtualized on the hot path. The methods
// themselves serve a caller-supplied Backend that wraps the simulator.
type simBackend struct{}

func (simBackend) Name() string { return "sim" }

func (simBackend) Begin(tx *Tx) { tx.begin() }

func (simBackend) Admit(tx *Tx, write bool, n int) {
	limit := tx.readCap
	if write {
		limit = tx.writeCap
	}
	tx.simAdmit(n, limit)
}

func (simBackend) Commit(tx *Tx) AbortCause { return tx.commit() }

func (simBackend) End(*Tx, bool) {}

// Announce is a no-op: the simulator never blocks, so it has no waiters
// to redirect; helping for the simulated backend is driven entirely at
// the engine layer (a thread that finds the fallback lock word set
// helps via Thread.Help between attempts).
func (simBackend) Announce(Announced) {}

// Help runs the announced operation on th's behalf. The simulator
// itself never calls this (it has no blocking point); it exists for the
// engine-facing Thread.Help entry.
func (simBackend) Help(th *Thread) bool { return th.runHelp() }

// tleLockBackend implements BackendTLELock: a per-TM mutex held for the
// whole attempt. See the BackendTLELock docs for the semantics.
type tleLockBackend struct {
	mu sync.Mutex
	// announced counts announced-but-not-retracted fallback operations
	// (0 or 1 in practice; balanced Announce calls keep it exact). When
	// nonzero, Begin switches from blocking on the mutex to a
	// try-lock/help loop so a thread serialized behind the lock spends
	// its wait completing the announced operation.
	announced atomic.Int32
}

func (b *tleLockBackend) Name() string { return "tle-lock" }

func (b *tleLockBackend) Begin(tx *Tx) {
	if b.announced.Load() > 0 {
		for !b.mu.TryLock() {
			if !tx.th.runHelp() {
				runtime.Gosched()
			}
		}
	} else {
		b.mu.Lock()
	}
	tx.begin()
}

// Admit admits everything: a mutex has no footprint limit, and the
// injected-failure model belongs to the simulator.
func (b *tleLockBackend) Admit(*Tx, bool, int) {}

// Commit runs the versioned commit even though no other transaction can
// be in flight: non-transactional cell operations on the fallback path
// do not take the mutex, so the version-clock protocol is still what
// provides strong atomicity against them (and conflict aborts remain
// possible for exactly that reason).
func (b *tleLockBackend) Commit(tx *Tx) AbortCause { return tx.commit() }

func (b *tleLockBackend) End(*Tx, bool) { b.mu.Unlock() }

// Announce tracks the announcement window (see the announced field).
func (b *tleLockBackend) Announce(a Announced) {
	if a != nil {
		b.announced.Add(1)
	} else {
		b.announced.Add(-1)
	}
}

// Help runs the announced operation on th's behalf (engine-facing
// entry; Begin's wait loop calls runHelp directly).
func (b *tleLockBackend) Help(th *Thread) bool { return th.runHelp() }

// NewBackend returns a fresh instance of a built-in backend. Backends
// carry per-TM state (the TLE mutex), so every TM needs its own value.
func NewBackend(k BackendKind) Backend {
	switch k {
	case BackendTLELock:
		return &tleLockBackend{}
	default:
		return simBackend{}
	}
}
