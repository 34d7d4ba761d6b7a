package htm

import "sync/atomic"

// Clock is a version clock owned by a TM instance. Transactions snapshot
// it at begin; a commit stamps its writes one past it without writing it
// (TL2's GV5), and a reader that meets a cell stamped past its snapshot
// raises the clock to that version (advance). Non-transactional cell
// mutations tick it through the cell's binding (see Word.Bind), and a
// pinned reader takes a fresh value with Pin. Each TM carries its own
// clock, so trees built on separate TM instances — in particular the
// shards of a sharded dictionary — never contend on a shared
// version-clock cache line. Only cells bound to the same clock form one
// synchronization domain: transactions of a TM must only access cells
// bound to that TM's clock.
//
// The counter is padded to a cache line on both sides so that clocks
// embedded next to other hot state (and next to each other in slices)
// never false-share.
type Clock struct {
	_ [64]byte
	v atomic.Uint64
	_ [64 - 8]byte
}

// NewClock returns a free-standing clock for cells used outside any TM
// (software-only tests and structures). Cells that transactions of a TM
// access must instead be bound to that TM's clock (TM.Clock).
func NewClock() *Clock { return &Clock{} }

// Now returns the clock's current value.
func (c *Clock) Now() uint64 { return c.v.Load() }

// Pin advances the clock by one and returns the new value, a fresh
// snapshot for a pinned reader (Thread.AtomicAt). A commit stamps its
// writes one past the clock, so a snapshot taken with Now would lie
// before the newest commits, and the reader would abort on their cells;
// one taken with Pin covers them.
func (c *Clock) Pin() uint64 { return c.tick() }

// tick advances the clock and returns the new value.
func (c *Clock) tick() uint64 { return c.v.Add(1) }

// advance raises the clock to at least v and returns its value
// afterwards.
func (c *Clock) advance(v uint64) uint64 {
	for {
		now := c.v.Load()
		if now >= v {
			return now
		}
		if c.v.CompareAndSwap(now, v) {
			return v
		}
	}
}
