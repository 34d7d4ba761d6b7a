package htm

import "sync/atomic"

// Clock is the version clock: one per process, as TL2 keeps one global
// clock (Dice, Shalev and Shavit, DISC 2006). Every TM's Clock returns
// it and every cell is stamped from it, so all cells form one
// synchronization domain and nothing has to say which clock a cell
// belongs to. Transactions snapshot it at begin; a commit stamps its
// writes one past it without writing it (TL2's GV5), and a reader that
// meets a cell stamped past its snapshot raises the clock to that
// version (advance). Non-transactional cell mutations tick it, and a
// pinned reader takes a fresh value with Pin. Since commits leave it
// alone, the clock's cache line is written only by those ticks and
// advances, not once per commit.
//
// The counter is padded to a cache line on both sides so that it shares
// its line with nothing.
type Clock struct {
	_ [64]byte
	v atomic.Uint64
	_ [64 - 8]byte
}

// clock is the version clock.
var clock Clock

// Now returns the clock's current value.
func (c *Clock) Now() uint64 { return c.v.Load() }

// Pin advances the clock by one and returns the new value, a fresh
// snapshot for a pinned reader (Thread.AtomicAt). A commit stamps its
// writes one past the clock, so a snapshot taken with Now would lie
// before the newest commits, and the reader would abort on their cells;
// one taken with Pin covers them. One Pin serves every TM: a reader
// pinning transactions of several (internal/shard's cross-shard read)
// takes one value for all of them.
func Pin() uint64 { return clock.tick() }

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
