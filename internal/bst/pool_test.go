package bst

import (
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// TestPoolReuseSteadyState: a delete/insert cycle on the fast path must
// reach a steady state where every insert draws from the pool and no
// fresh nodes are allocated.
func TestPoolReuseSteadyState(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for k := uint64(1); k <= 64; k++ {
		h.Insert(k, k)
	}
	// Warm the grace-period circulation: internal nodes come back from
	// the epoch bags in batches, so the pool needs a few epochs' worth
	// of nodes in flight before it sustains the cycle alone.
	for i := 0; i < 300; i++ {
		k := uint64(i%64) + 1
		h.Delete(k)
		h.Insert(k, k)
	}
	warm := h.ReclaimStats()
	for i := 0; i < 1000; i++ {
		k := uint64(i%64) + 1
		h.Delete(k)
		h.Insert(k, k)
	}
	st := h.ReclaimStats()
	if st.Reused == warm.Reused {
		t.Fatal("steady-state cycle never reused a pooled node")
	}
	if st.Fresh != warm.Fresh {
		t.Fatalf("steady-state cycle heap-allocated %d nodes", st.Fresh-warm.Fresh)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// handsOut reports whether h's pool hands out a node of set: it draws
// leaves until the pool allocates a fresh one, then returns them all.
func handsOut(h *Handle, set map[*Node]bool) bool {
	h.Pool.BeginAttempt()
	defer h.Pool.BeginAttempt()
	for fresh := h.Pool.Stats().Fresh; h.Pool.Stats().Fresh == fresh; {
		if set[h.Pool.Take(true)] {
			return true
		}
	}
	return false
}

// TestRetireFastGatedByFallbackReader: a leaf removed by a fast-path
// commit waits out a grace period like every removed node. While another
// thread of the engine is inside its reclamation bracket — the engine's
// walker here, standing for any reader that may still hold the leaf, a
// fallback-path one included — the leaf is not handed out again, however
// many retirements the deleting thread makes meanwhile; once that thread
// leaves its bracket and the epoch advances, it is.
func TestRetireFastGatedByFallbackReader(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for k := uint64(1); k <= 256; k++ {
		h.Insert(k, k)
	}
	removed := map[*Node]bool{}
	tr.eng.Walk(func() {
		_, _, l := tr.search(nil, 10)
		fast := tr.OpStats().Fast
		h.Delete(10)
		if tr.OpStats().Fast != fast+1 {
			t.Fatal("set-up: the delete did not complete on the fast path")
		}
		removed[l] = true
		// Fast-path deletes draw no node: the pool is probed, not drained.
		for k := uint64(11); k <= 100; k++ {
			h.Delete(k)
			if handsOut(h, removed) {
				t.Fatalf("the removed leaf was handed out while a reader was in its bracket (%d deletes later)", k-10)
			}
		}
	})
	for k := uint64(101); ; k++ {
		if k > 250 {
			t.Fatalf("the removed leaf never came back after the reader left its bracket: %+v", h.ReclaimStats())
		}
		h.Delete(k)
		if handsOut(h, removed) {
			break
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLeafReuseMovesNoVersion: a pooled leaf came back through a grace
// period, so it is out of every thread's reach and is rewritten like a
// fresh node, with no version word touched: a transaction pinned before
// the reuse reads all of it at its old snapshot. (It sees the new
// contents, which no transaction that could really exist would: the pin
// is only the probe for "was any version moved".)
func TestLeafReuseMovesNoVersion(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	h.Insert(1, 1) // establish the handle's reclamation context
	l := h.newLeaf(10, 100)
	h.Pool.Settle()   // published; the leaf's first life
	h.Pool.Release(l) // as ebr does once the grace period expired
	rv := tr.tm.Clock().Now()
	h.Insert(1, 2) // the clock moves on (a value update draws no node)
	if tr.tm.Clock().Now() == rv {
		t.Fatal("set-up: the clock did not move")
	}
	n := h.newLeaf(30, 300)
	if n != l {
		t.Fatal("newLeaf did not reuse the pooled leaf")
	}
	var val uint64
	ok, ab := tr.tm.NewThread().AtomicAt(htm.PathFast, rv, func(tx *htm.Tx) {
		val = n.val.Get(tx)
		if n.hdr.Marked(tx) || n.hdr.InfoValue(tx) != nil {
			t.Error("reused leaf's header is not reset")
		}
	})
	if !ok {
		t.Fatalf("reuse of a pooled leaf moved a version word: a reader pinned before it aborted with %+v", ab)
	}
	if n.key != 30 || val != 300 {
		t.Errorf("pooled leaf holds (%d, %d) after reuse", n.key, val)
	}
}
