package bst

import (
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// heldIndicator is a fetch-and-increment engine.Indicator the test keeps
// a reference to, so it can arrive on the fallback-presence indicator
// from outside any operation.
type heldIndicator struct{ f htm.Word }

func (c *heldIndicator) Arrive()                 { c.f.Add(1) }
func (c *heldIndicator) Depart()                 { c.f.Add(^uint64(0)) }
func (c *heldIndicator) Nonzero(tx *htm.Tx) bool { return c.f.Get(tx) != 0 }
func (c *heldIndicator) Bind(clk *htm.Clock)     { c.f.Bind(clk) }

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
	if st.RetiredFast == warm.RetiredFast {
		t.Fatal("fast-path deletions never recycled immediately")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetireFastGatedByFallbackReader is the white-box reclamation
// check: while an operation is (simulated) live on the fallback path,
// removals must not recycle immediately — the deleting operation is
// pushed off the fast path by the presence indicator, and its nodes
// take the grace period, so none can be handed out under the reader.
func TestRetireFastGatedByFallbackReader(t *testing.T) {
	t.Parallel()
	ind := &heldIndicator{}
	tr := New(Config{
		Algorithm: engine.AlgThreePath,
		Engine:    engine.Config{Indicator: ind},
	})
	h := tr.newHandle()
	for k := uint64(1); k <= 64; k++ {
		h.Insert(k, k)
	}

	// Unobstructed: a fast-path delete recycles immediately — the nodes
	// are in the pool before the next operation starts.
	before := h.ReclaimStats()
	h.Delete(10)
	after := h.ReclaimStats()
	if after.RetiredFast == before.RetiredFast {
		t.Fatalf("unobstructed fast-path delete did not recycle immediately: %+v", after)
	}
	if h.PoolSize() == 0 {
		t.Fatal("immediately recycled nodes not in the pool")
	}

	// Drain the pool back into the tree so pool-size observations below
	// start from zero.
	for h.PoolSize() > 0 {
		k := uint64(1000 + h.PoolSize())
		h.Insert(k, k)
	}

	// A live fallback-path operation (simulated by arriving on the
	// engine's presence indicator, exactly what runFallbackLoop does)
	// must force the delete off the fast path and its removals to the
	// grace period: nothing is handed out while the reader is live.
	ind.Arrive()
	mid := h.ReclaimStats()
	poolBefore := h.PoolSize()
	h.Delete(20)
	st := h.ReclaimStats()
	if st.RetiredFast != mid.RetiredFast {
		t.Fatalf("RetireFast happened while a fallback-path reader was live: %+v", st)
	}
	if st.RetiredGrace == mid.RetiredGrace {
		t.Fatal("delete under a live fallback reader retired nothing")
	}
	if h.PoolSize() != poolBefore {
		t.Fatal("grace-period node reached the pool while the fallback reader was live")
	}
	ind.Depart()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestImmediateRecycleByAlgorithm: Section 9's immediate recycling
// applies exactly where the first path excludes every non-transactional
// reader — 3-path and 2-path-ncon through the fallback indicator, TLE
// through the lock subscription. 2-path-con's first path is the
// instrumented body running beside fallback-path readers, and non-htm and
// scx-htm commit removals non-transactionally: there every removal waits
// out a grace period.
func TestImmediateRecycleByAlgorithm(t *testing.T) {
	t.Parallel()
	immediate := map[engine.Algorithm]bool{
		engine.AlgThreePath: true, engine.AlgTwoPathNCon: true, engine.AlgTLE: true,
	}
	for _, alg := range algorithms {
		tr := New(Config{Algorithm: alg})
		h := tr.newHandle()
		for k := uint64(1); k <= 32; k++ {
			h.Insert(k, k)
		}
		for k := uint64(1); k <= 32; k++ {
			h.Delete(k)
		}
		st := h.ReclaimStats()
		if (st.RetiredFast != 0) != immediate[alg] {
			t.Errorf("%v: RetiredFast = %d, want immediate recycling %v: %+v", alg, st.RetiredFast, immediate[alg], st)
		}
		if st.RetiredGrace == 0 {
			t.Errorf("%v: deletes retired nothing through a grace period: %+v", alg, st)
		}
	}
}

// TestLeafReuseStoresByList: what reusing a pooled leaf costs depends on
// the list it comes from. One that skipped its grace period (removed by a
// fast-path commit) may still be held by a transaction that read it
// before, so reuse must move its cells past that reader's snapshot: a
// transaction pinned between the removal and the reuse aborts on the key,
// the first cell any reader of a leaf validates. One that came back
// through a grace period is out of every thread's reach and is rewritten
// like a fresh node, with no version word touched: the same pinned
// transaction reads all of it at its old snapshot. (It sees the new
// contents, which no transaction that could really exist would: the pin
// is only the probe for "was any version moved".)
func TestLeafReuseStoresByList(t *testing.T) {
	t.Parallel()
	for _, immediate := range []bool{false, true} {
		tr := New(Config{Algorithm: engine.AlgThreePath})
		h := tr.newHandle()
		h.Insert(1, 1) // establish the handle's reclamation context
		l := h.newLeaf(10, 100)
		h.Pool.Settle(htm.PathFast) // published; the leaf's first life
		if immediate {
			h.Pool.Remove(l)
			h.Pool.Settle(htm.PathFast)
		} else {
			h.Pool.Release(l) // as ebr does once the grace period expired
		}
		rv := tr.tm.ClockValue()
		h.Insert(1, 2) // the clock moves on (a value update draws no node)
		if tr.tm.ClockValue() == rv {
			t.Fatal("set-up: the clock did not move")
		}
		n := h.newLeaf(30, 300)
		if n != l {
			t.Fatalf("immediate=%v: newLeaf did not reuse the pooled leaf", immediate)
		}
		var key, val uint64
		ok, ab := tr.tm.NewThread().AtomicAt(htm.PathFast, rv, func(tx *htm.Tx) {
			key = n.key.GetStable(tx)
			val = n.val.Get(tx)
			if n.hdr.Marked(tx) || n.hdr.InfoValue(tx) != nil {
				t.Error("reused leaf's header is not reset")
			}
		})
		switch {
		case immediate && (ok || ab.Cause != htm.CauseConflict):
			t.Errorf("a reader pinned before the reuse of an immediately recycled leaf was not aborted (committed %v, %+v)", ok, ab)
		case !immediate && !ok:
			t.Errorf("reuse of a grace-released leaf moved a version word: a reader pinned before it aborted with %+v", ab)
		case !immediate && (key != 30 || val != 300):
			t.Errorf("grace-released leaf holds (%d, %d) after reuse", key, val)
		}
	}
}
