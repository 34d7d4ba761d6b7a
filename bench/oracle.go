package main

import "fmt"

// The result oracle. Every stored value is key XOR valMask, so any pair
// a tree hands back is checkable without a model; every worker keeps
// the net key-sum and count of its successful inserts and deletes, so
// the tree's final KeySum is checkable too.

const valMask = 0x6a09e667f3bcc908

func valueOf(key uint64) uint64 { return key ^ valMask }

// tally counts one worker's operations against one tree and the net
// effect they should have had on it. sum and count wrap like the trees'
// own checksums do.
type tally struct {
	attempted, failed uint64
	sum, count        uint64
}

func (t *tally) insert(key, old uint64, existed bool) {
	t.attempted++
	switch {
	case !existed:
		t.sum += key
		t.count++
	case old != valueOf(key):
		t.failed++
	}
}

func (t *tally) delete(key, old uint64, existed bool) {
	t.attempted++
	switch {
	case !existed:
	case old != valueOf(key):
		t.failed++
	default:
		t.sum -= key
		t.count--
	}
}

func (t *tally) search(key, val uint64, found bool) {
	t.attempted++
	if found && val != valueOf(key) {
		t.failed++
	}
}

// scanCheck checks one range-query result element by element: every
// key inside [lo, hi), strictly ascending, carrying its own value.
type scanCheck struct {
	lo, hi, prev uint64
	n            int
	bad          bool
}

func (c *scanCheck) elem(key, val uint64) {
	if key < c.lo || key >= c.hi || val != valueOf(key) || (c.n > 0 && key <= c.prev) {
		c.bad = true
	}
	c.prev = key
	c.n++
}

func (t *tally) scan(c *scanCheck) {
	t.attempted++
	if c.bad {
		t.failed++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.sum += o.sum
	t.count += o.count
}

// checkFinal compares a quiescent tree's checksum and invariant check
// with what the tallied operations should have left behind.
func (t *tally) checkFinal(sum, count uint64, invariants error) error {
	if invariants != nil {
		return fmt.Errorf("invariants: %w", invariants)
	}
	if sum != t.sum || count != t.count {
		return fmt.Errorf("key-sum mismatch: tree has sum=%d count=%d, operations left sum=%d count=%d",
			sum, count, t.sum, t.count)
	}
	return nil
}
