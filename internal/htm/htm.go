// Package htm provides a simulated best-effort hardware transactional
// memory in the style of Intel TSX/RTM, used as the substrate for the
// accelerated tree-update-template algorithms of Brown (PODC 2017).
//
// Real RTM offers opaque transactions that are strongly atomic with
// respect to non-transactional code, and that abort with a reason code
// (conflict, capacity, explicit xabort, or a spurious event such as an
// interrupt). Go has no HTM intrinsics, so this package reproduces those
// two semantic properties in software with a TL2-flavoured design:
//
//   - Shared memory is held in cells (Ref[T] for pointers, Word for
//     uint64, and Block for one version word over a run of two-word
//     entries, Pairs: an (a,b)-tree leaf's order word and slots).
//     Every access, transactional or not, goes through the cell API.
//     Each cell pairs its value with a version word encoded as
//     version<<1|lock. The version word is the stand-in for hardware's
//     cache lines: what shares lines on the modelled machine should
//     share a version word here, and a write of any entry of a Block
//     conflicts with a reader of every other. The read and write sets
//     count entries: a Word, a Ref, or one Pair of a Block. A cell is
//     its version word and its values, nothing more.
//   - There is one version clock (Clock, cache-line padded), as TL2
//     keeps one global clock: every TM's transactions snapshot it and
//     every write is stamped from it, so all cells form one
//     synchronization domain and no cell or TM says which clock it
//     uses. Commits do not write it (below); non-transactional
//     mutations, pins and snapshot extensions do.
//   - A transaction snapshots the version clock at begin (rv) and
//     buffers writes. Every read checks that the cell is unlocked and
//     stamped at most rv. A read that meets a newer stamp extends the
//     snapshot instead of aborting (Tx.extend, LSA-style): it raises the
//     clock to the stamp and re-checks every earlier read for the exact
//     version it logged. So every read holds at the current snapshot,
//     which yields opacity (no zombie transactions). An attempt pinned
//     at a caller's snapshot (Thread.AtomicAt) never extends; it aborts.
//   - Commit try-locks the write set (failure aborts with Conflict,
//     mirroring HTM's abort-on-conflict rather than blocking), validates
//     the read set, applies the writes, and then unlocks each version
//     word it locked by stamping it one past the clock without writing
//     the clock (TL2's GV5; a cell already at that stamp gets one past
//     its own version, so every write moves the version word). So
//     commits share no cache line but the ones they write, as on
//     hardware. Every write-set entry is a buffered store, like a
//     hardware transaction's stores: there is no commit-time
//     read-modify-write.
//   - Non-transactional stores and CAS operations lock the cell, tick
//     the clock, stamp the cell with the new clock value, and unlock.
//     Because they stamp the same versions the transactions validate
//     against, transactions are strongly atomic with respect to them —
//     the property the paper's fallback-path interaction relies on.
//
// Capacity aborts are modelled by configurable read/write set limits (a
// machine is a pair of budgets), and spurious aborts — the stand-in for
// interrupts, page faults and other best-effort failures — are injected
// at the fault plan's PointTxAccess seam, which can force any other cause
// too, so the execution path policies built on top observe the same
// abort-reason signals they would on hardware.
//
// The simulator is this system's hardware, so its per-access cost is the
// floor under every other number. Three things keep it down. A
// transactional read or first write of a cell must know whether the cell
// is already in the write set; a 256-bit signature of the write set's
// value-storage addresses (Tx.sig) answers "no" in O(1), inlined into
// the cells' Get, and only a hit scans. What an access needs from the
// configuration — capacity limits, whether failure injection is armed —
// is copied into the Tx when its thread is created, so an access reads
// it from the Tx it already holds (Tx.bind).
// And a write-set entry addresses its cell by two raw pointers, value
// storage (its identity) and version word (its lock, which a Block's
// entries share and commit takes once), so commit applies every kind of
// entry (a buffered Word, Ref or Pair value) with a switch instead of an
// interface call and an entry stays under a cache line.
//
// A transaction is a single attempt, exactly like XBEGIN/XEND: retry
// policy belongs to the caller. Transactions must not be nested. An
// attempt that aborts unwinds by panic with a payload its Thread owns,
// so aborting allocates nothing.
package htm

import (
	"sync"

	"htmtree/internal/fault"
)

// Default capacities, an Intel-like machine sized so that the paper's
// small range queries commit on the fast path while large ones overflow
// to the fallback path (Section 7.1). A smaller machine — the POWER8 of
// Section 8, whose transactions abort after touching 64 cache lines — is
// the same two budgets set lower.
const (
	// DefaultReadCapacity ~ a few hundred tree nodes: point operations
	// (tens of cells) always fit, range queries over more than a few
	// hundred keys overflow — matching the paper's observation that its
	// [1,1000]-key BST range queries abort by capacity on Haswell.
	DefaultReadCapacity  = 2048
	DefaultWriteCapacity = 1024

	// lockSpin is how many times a transactional read spins on a locked
	// cell (a commit in flight) before aborting with CauseConflict.
	lockSpin = 64
)

// Config controls the simulated HTM implementation.
// The zero value selects the defaults (an Intel-like profile with no
// injected aborts).
type Config struct {
	// ReadCapacity is the maximum number of read-set entries before a
	// transaction aborts with CauseCapacity.
	ReadCapacity int
	// WriteCapacity is the maximum number of write-set entries before a
	// transaction aborts with CauseCapacity.
	WriteCapacity int
	// Faults, when non-nil, arms the deterministic fault-injection
	// plane at this TM's transactional accesses: a fault.PointTxAccess
	// effect forces an abort with the effect's cause (CauseSpurious
	// when unset) — interrupts, page faults and other best-effort
	// failures, or a chaos harness's abort storm by cause. Without a
	// plan an access pays one predictable branch for it (Tx.armed);
	// with one, every access of the TM's transactions goes through
	// Tx.inject.
	Faults *fault.Plan
}

// withDefaults returns c with zero fields replaced by default values.
func (c Config) withDefaults() Config {
	if c.ReadCapacity == 0 {
		c.ReadCapacity = DefaultReadCapacity
	}
	if c.WriteCapacity == 0 {
		c.WriteCapacity = DefaultWriteCapacity
	}
	return c
}

// TM is an instance of the simulated transactional memory. It carries
// the configuration and the registry of threads whose statistics it
// aggregates. The version clock is not the TM's: all TMs share the one
// Clock, so any TM's transactions may touch any cell.
type TM struct {
	cfg Config

	mu      sync.Mutex
	threads []*Thread
}

// New creates a transactional memory instance with the given
// configuration. Zero fields of cfg select defaults.
func New(cfg Config) *TM { return &TM{cfg: cfg.withDefaults()} }

// Clock returns the version clock, the same for every TM.
func (tm *TM) Clock() *Clock { return &clock }

// NewThread registers and returns a new thread context. Each Thread must
// be used by a single goroutine at a time.
func (tm *TM) NewThread() *Thread {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	th := &Thread{tm: tm, faults: tm.cfg.Faults}
	th.tx.bind(th)
	tm.threads = append(tm.threads, th)
	return th
}

// Stats returns the sum of all registered threads' statistics. It is safe
// to call while threads are running; the snapshot is approximate in that
// case (counters are read without synchronization barriers between
// threads), which is all the benchmark reporting needs.
func (tm *TM) Stats() Stats {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	var s Stats
	for _, th := range tm.threads {
		s.add(&th.stats)
	}
	return s
}
