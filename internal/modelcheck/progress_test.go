package modelcheck

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"htmtree"
	"htmtree/internal/bst"
	"htmtree/internal/engine"
)

// TestProgressStalledMonitoredUpdate is the progress table's row for an
// update that stops inside its monitor bracket (ROADMAP P): on a 4-shard
// non-htm BST with AtomicRangeQueries, the first update stalls at the
// fallback-owner seam, which every non-htm update passes inside the
// bracket its shard handle opened. While it is stalled:
//
//   - updates on the other three shards keep completing;
//   - an escalated cross-shard read over those three shards completes;
//   - an escalated read over its own shard finishes only after the stall
//     ends: the quiesce waits for the update to leave its bracket.
//
// The watchdog counts the stall window in operations. The read over the
// other shards is made to escalate deterministically: while it is
// armed, every epoch pin of an inner operation — each shard query of
// the read is one — first runs an update on one of the read's shards
// through another handle, so no optimistic attempt validates; the
// quiesce seam disarms it once the read holds the gates.
func TestProgressStalledMonitoredUpdate(t *testing.T) {
	const (
		stall      = time.Second
		victimKey  = 50  // shard 0
		perturbKey = 350 // shard 3
	)
	var (
		stalled               = make(chan struct{})
		perturb, perturbing   atomic.Bool
		perturbH              *htmtree.Handle
		perturbVal            atomic.Uint64
		lv                    = &htmtree.FaultLiveness{}
		victimDone, readsDone = make(chan struct{}), make(chan struct{})
	)
	plan := htmtree.NewFaultPlan(1,
		htmtree.FaultRule{Point: htmtree.FaultFallbackOwner, Every: 1, Count: 1,
			Stall: stall, Watch: true, Func: func() { close(stalled) }},
		htmtree.FaultRule{Point: htmtree.FaultEBRPin, Func: func() {
			if perturb.Load() && perturbing.CompareAndSwap(false, true) {
				perturbH.Insert(perturbKey, perturbVal.Add(1))
				perturbing.Store(false)
			}
		}},
		htmtree.FaultRule{Point: htmtree.FaultQuiesce, Func: func() { perturb.Store(false) }},
	)
	plan.Watch(lv)
	tree, err := htmtree.NewShardedBST(htmtree.Config{
		Algorithm:          htmtree.NonHTM,
		Shards:             4,
		ShardKeySpan:       400, // shard i owns [100i, 100i+100)
		AtomicRangeQueries: true,
		Faults:             plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	perturbH = tree.NewHandle()

	// The victim is the tree's first operation, so the one-shot stall
	// fires on it.
	go func() {
		defer close(victimDone)
		tree.NewHandle().Insert(victimKey, 1)
	}()
	<-stalled
	for lv.Open() == 0 { // the stall fires its Func first, then opens the window
		runtime.Gosched()
	}
	stallOpen := func() bool { return lv.Open() == 1 }

	// Updates on shards 1..3.
	h := tree.NewHandle()
	want := map[uint64]bool{}
	ops := 0
	for k := uint64(100); k < 400; k += 3 {
		h.Insert(k, k)
		want[k] = true
		lv.OpDone()
		ops++
		if k%2 == 0 {
			h.Delete(k)
			delete(want, k)
			lv.OpDone()
			ops++
		}
	}

	// An escalated read over shards 1..3.
	before := tree.Stats().Range
	perturb.Store(true)
	got := h.RangeQuery(100, 400, nil)
	lv.OpDone()
	ops++
	want[perturbKey] = true
	after := tree.Stats().Range
	if len(got) != len(want) {
		t.Errorf("read over shards 1..3: %d pairs, want %d", len(got), len(want))
	}
	for _, kv := range got {
		if !want[kv.Key] {
			t.Errorf("read over shards 1..3 returned key %d, which is not present", kv.Key)
		}
	}
	if esc, q := after.Escalations-before.Escalations, after.Quiesces-before.Quiesces; esc != 1 || q != 3 {
		t.Errorf("read over shards 1..3: %d escalations closing %d gates, want 1 and 3", esc, q)
	}
	if !stallOpen() {
		t.Fatalf("the %v stall ended before the other shards' %d operations completed: the row measured nothing", stall, ops)
	}

	// An escalated read over shards 0..1 waits for the victim.
	var ownReadAfterStall atomic.Bool
	go func() {
		defer close(readsDone)
		got := tree.NewHandle().RangeQuery(0, 200, nil)
		// The stall window closes before the victim leaves its bracket,
		// and the read's quiesce of shard 0 waits for that.
		ownReadAfterStall.Store(!stallOpen())
		if len(got) == 0 || got[0].Key != victimKey {
			t.Errorf("read over shards 0..1 does not begin with the victim's key: %v", got)
		}
	}()
	<-victimDone
	<-readsDone
	lv.OpDone()
	if !ownReadAfterStall.Load() {
		t.Error("an escalated read over the stalled update's shard finished while the update was stalled")
	}
	if st := tree.Stats().Range; st.Escalations-after.Escalations != 1 {
		t.Errorf("read over shards 0..1 escalated %d times, want 1", st.Escalations-after.Escalations)
	}

	lv.Finish()
	ws := lv.Windows()
	if len(ws) != 1 {
		t.Fatalf("stall windows = %d, want 1", len(ws))
	}
	if p := ws[0].Progress(); p < uint64(ops) {
		t.Errorf("the stall window counts %d operations, want >= the %d the other shards completed", p, ops)
	}
	if err := lv.Check(); err != nil {
		t.Error(err)
	}
	t.Logf("stall window: %d operations on the other shards", ws[0].Progress())
}

// TestProgressPinnedEpoch is the progress table's row for an operation
// that stops inside its reclamation bracket (ROADMAP P): on a 3-path BST,
// the first operation stalls right after it pins its epoch, which holds
// the global epoch back, so no removed node finishes its grace period
// while it sleeps. Every removed node waits out a grace period before
// its pool reuses it (internal/nodepool), so this is the row the pools'
// progress rests on. While the stall lasts:
//
//   - another handle keeps completing updates (the window's progress,
//     counted in operations);
//   - the nodes its deletes remove pile up in limbo (Reclaim.Limbo
//     rises), and its inserts draw fresh nodes meanwhile.
//
// After the stall, limbo drains to a few epochs' worth and the pool
// serves every insert again: a further churn draws no fresh node.
func TestProgressPinnedEpoch(t *testing.T) {
	const (
		stall = time.Second
		pairs = 1000 // insert+delete pairs per churn
	)
	var (
		stalled    = make(chan struct{})
		victimDone = make(chan struct{})
		lv         = &htmtree.FaultLiveness{}
	)
	plan := htmtree.NewFaultPlan(1, htmtree.FaultRule{Point: htmtree.FaultEBRPin, Every: 1, Count: 1,
		Stall: stall, Watch: true, Func: func() { close(stalled) }})
	plan.Watch(lv)
	tr := bst.New(bst.Config{Algorithm: engine.AlgThreePath, Engine: engine.Config{Faults: plan}})
	victim, h := tr.NewHandle(), tr.NewHandle().(*bst.Handle)

	// The victim's insert is the tree's first operation, so the one-shot
	// stall fires on it.
	go func() {
		defer close(victimDone)
		victim.Insert(1, 1)
	}()
	<-stalled
	for lv.Open() == 0 { // the stall fires its Func first, then opens the window
		runtime.Gosched()
	}
	churn := func() {
		for i := 0; i < pairs; i++ {
			k := uint64(1000 + i%64)
			h.Insert(k, k)
			lv.OpDone()
			h.Delete(k)
			lv.OpDone()
		}
	}

	before, fresh := tr.OpStats().Reclaim.Limbo, h.ReclaimStats().Fresh
	churn()
	peak := tr.OpStats().Reclaim.Limbo
	if lv.Open() != 1 {
		t.Fatalf("the %v stall ended before the other handle's %d operations completed: the row measured nothing", stall, 2*pairs)
	}
	// Each delete removes two nodes; the gauge is published every 32
	// retirements.
	if peak < before+pairs {
		t.Errorf("limbo %d -> %d over %d deletes behind the pinned epoch, want a rise of at least %d", before, peak, pairs, pairs)
	}
	if drawn := h.ReclaimStats().Fresh - fresh; drawn < pairs {
		t.Errorf("the inserts behind the pinned epoch drew %d fresh nodes, want at least %d: removed nodes were reused before their grace period", drawn, pairs)
	}

	<-victimDone
	lv.Finish()
	ws := lv.Windows()
	if len(ws) != 1 {
		t.Fatalf("stall windows = %d, want 1", len(ws))
	}
	if p := ws[0].Progress(); p < 2*pairs {
		t.Errorf("the stall window counts %d operations, want >= the %d the other handle completed", p, 2*pairs)
	}
	if err := lv.Check(); err != nil {
		t.Error(err)
	}
	if v, ok := h.Search(1); !ok || v != 1 {
		t.Errorf("the stalled insert's key reads (%d, %v) after the stall, want (1, true)", v, ok)
	}

	churn()
	if l := tr.OpStats().Reclaim.Limbo; l > peak/4 {
		t.Errorf("limbo %d after the stall (peak %d): the backlog did not drain", l, peak)
	}
	fresh = h.ReclaimStats().Fresh
	churn()
	if drawn := h.ReclaimStats().Fresh - fresh; drawn != 0 {
		t.Errorf("after the drain the pool still drew %d fresh nodes over %d insert+delete pairs", drawn, pairs)
	}
	t.Logf("stall window: %d operations; limbo %d -> peak %d", ws[0].Progress(), before, peak)
}
