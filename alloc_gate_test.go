package htmtree_test

import (
	"testing"
	"time"

	"htmtree"
	"htmtree/internal/hist"
	"htmtree/internal/htm"
)

// Allocation-regression gate (PR 5 acceptance): steady-state point
// operations on the pooled BST and (a,b)-tree must not allocate. Inserts
// draw nodes from the per-thread pools that deletions refill through
// epoch-based reclamation, value updates mutate leaves in place, and the
// engine/htm plumbing (transaction logs, op closures) is allocated once
// per handle — so after warmup, AllocsPerRun must
// observe zero.
//
// CI runs this test explicitly by name; a regression here
// means something on the hot path started allocating again.

// warmups populate the tree, the handle's pools, and every
// amortized-growth buffer (transaction logs, scratch slices) before
// measurement.
const (
	gateKeys    = 512
	gateWarmups = 200
)

func gateCheck(t *testing.T, name string, avg float64) {
	t.Helper()
	if avg != 0 {
		t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, avg)
	}
}

func TestAllocGateBSTPointOps(t *testing.T) {
	tree, err := htmtree.NewBST(htmtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(1); k <= gateKeys; k++ {
		h.Insert(k, k)
	}
	k := uint64(gateKeys / 2)
	for i := 0; i < gateWarmups; i++ {
		h.Delete(k)
		h.Insert(k, k)
	}

	gateCheck(t, "bst delete+insert", testing.AllocsPerRun(200, func() {
		h.Delete(k)
		h.Insert(k, k)
	}))
	gateCheck(t, "bst value update", testing.AllocsPerRun(200, func() {
		h.Insert(k, 7)
	}))
	gateCheck(t, "bst search", testing.AllocsPerRun(200, func() {
		h.Search(k)
	}))
}

func TestAllocGateABTreePointOps(t *testing.T) {
	tree, err := htmtree.NewABTree(htmtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(1); k <= gateKeys; k++ {
		h.Insert(k, k)
	}
	k := uint64(gateKeys / 2)
	for i := 0; i < gateWarmups; i++ {
		h.Delete(k)
		h.Insert(k, k)
	}

	gateCheck(t, "abtree delete+insert", testing.AllocsPerRun(200, func() {
		h.Delete(k)
		h.Insert(k, k)
	}))
	gateCheck(t, "abtree value update", testing.AllocsPerRun(200, func() {
		h.Insert(k, 7)
	}))
	gateCheck(t, "abtree search", testing.AllocsPerRun(200, func() {
		h.Search(k)
	}))
}

// TestAllocGateABTreeRebalancing gates the rebalancing steps: with the
// minimum degree bounds (a=2, b=4) a sweep that deletes and re-inserts a
// run of adjacent keys empties and refills whole leaves, so every cycle
// joins, shares, splits, absorbs and pushes tags up — and must still
// allocate nothing: the steps' child snapshots and merged key/child
// sequences come from per-handle scratch, their nodes from the pools.
func TestAllocGateABTreeRebalancing(t *testing.T) {
	tree, err := htmtree.NewABTree(htmtree.Config{A: 2, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(1); k <= gateKeys; k++ {
		h.Insert(k, k)
	}
	const lo, hi = gateKeys / 4, gateKeys / 2
	sweep := func() {
		for k := uint64(lo); k < hi; k++ {
			h.Delete(k)
		}
		for k := uint64(lo); k < hi; k++ {
			h.Insert(k, k)
		}
	}
	for i := 0; i < gateWarmups; i++ {
		sweep()
	}
	before := tree.Stats().Ops.Total()
	gateCheck(t, "abtree rebalancing sweep", testing.AllocsPerRun(50, sweep))
	// AllocsPerRun makes one extra warm-up call. Each delete and insert
	// is one engine operation; the rest are rebalancing steps.
	const pointOps = 51 * 2 * (hi - lo)
	if steps := tree.Stats().Ops.Total() - before - pointOps; steps < pointOps/4 {
		t.Errorf("only %d rebalancing steps in %d point operations, the gate measured nothing", steps, pointOps)
	}
}

// TestAllocGateAggregateQueries gates the aggregate query paths:
// steady-state RangeAgg over a window and over the whole tree on an
// unsharded tree must not allocate — the (a,b)-tree's transactional
// descent uses handle-resident scratch, its LLX-walk fallback a
// fixed-depth node stack (gated on its own by
// TestAllocGateABTreeFallbackScan), and the BST control reuses the
// handle's retained range-query buffer. (The sharded fan-out has its
// own gate, TestAllocGateCrossShardReads.)
func TestAllocGateAggregateQueries(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}{
		{"abtree", htmtree.NewABTree},
		{"bst", htmtree.NewBST},
	} {
		tree, err := tc.mk(htmtree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		h := tree.NewHandle()
		for k := uint64(1); k <= gateKeys; k++ {
			h.Insert(k, k)
		}
		aggCycle := func() {
			if _, err := h.RangeAgg(gateKeys/4, 3*gateKeys/4); err != nil {
				t.Fatal(err)
			}
			if _, err := h.RangeAgg(0, htmtree.MaxKey+1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < gateWarmups; i++ {
			aggCycle()
		}
		gateCheck(t, tc.name+" aggregate queries", testing.AllocsPerRun(200, aggCycle))
	}
}

// TestAllocGateCrossShardReads gates the atomic cross-shard fan-out: a
// RangeQuery or RangeAgg whose window spans several shards of an
// AtomicRangeQueries tree enters every shard's reclamation bracket, takes
// one htm.Pin() and runs each shard's part as a transaction pinned at it,
// out of per-handle scratch and the inner handles' retained range
// buffers, and must not allocate — however many of its attempts fail. The window covers all eight shards.
func TestAllocGateCrossShardReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}{
		{"sharded-bst", htmtree.NewShardedBST},
		{"sharded-abtree", htmtree.NewShardedABTree},
	} {
		tree, err := tc.mk(htmtree.Config{ShardKeySpan: gateKeys + 1, AtomicRangeQueries: true})
		if err != nil {
			t.Fatal(err)
		}
		h := tree.NewHandle()
		for i := uint64(0); i < gateKeys; i++ {
			k := i*197%gateKeys + 1 // scrambled: keeps the BST shards shallow
			h.Insert(k, k)
		}
		out := make([]htmtree.KV, 0, gateKeys)
		read := func() {
			if got := len(h.RangeQuery(1, gateKeys+1, out[:0])); got != gateKeys {
				t.Fatalf("%s: RangeQuery returned %d pairs, want %d", tc.name, got, gateKeys)
			}
			if agg, err := h.RangeAgg(1, gateKeys+1); err != nil || agg.Count != gateKeys {
				t.Fatalf("%s: RangeAgg = %+v, %v, want count %d", tc.name, agg, err, gateKeys)
			}
		}
		for i := 0; i < gateWarmups; i++ {
			read()
		}
		before := tree.Stats().Range
		gateCheck(t, tc.name+" cross-shard RangeQuery+RangeAgg", testing.AllocsPerRun(200, read))
		if st := tree.Stats().Range; st.Attempts-before.Attempts < 400 {
			t.Errorf("%s: %d cross-shard read attempts in 200 runs, the gate measured nothing", tc.name, st.Attempts-before.Attempts)
		}
	}
}

// TestAllocGateShardedPointOps gates point operations on sharded trees,
// plain and with AtomicRangeQueries, whose updates are admitted on their
// shard's monitor by the shard handle: routing and admission hand
// nothing to the heap.
func TestAllocGateShardedPointOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}{
		{"sharded-bst", htmtree.NewShardedBST},
		{"sharded-abtree", htmtree.NewShardedABTree},
	} {
		for _, atomic := range []bool{false, true} {
			name := tc.name
			if atomic {
				name += " atomic"
			}
			tree, err := tc.mk(htmtree.Config{ShardKeySpan: gateKeys + 1, AtomicRangeQueries: atomic})
			if err != nil {
				t.Fatal(err)
			}
			h := tree.NewHandle()
			for i := uint64(0); i < gateKeys; i++ {
				k := i*197%gateKeys + 1 // scrambled: keeps the BST shards shallow
				h.Insert(k, k)
			}
			k := uint64(gateKeys / 2)
			for i := 0; i < gateWarmups; i++ {
				h.Delete(k)
				h.Insert(k, k)
			}
			gateCheck(t, name+" delete+insert", testing.AllocsPerRun(200, func() {
				h.Delete(k)
				h.Insert(k, k)
			}))
			gateCheck(t, name+" search", testing.AllocsPerRun(200, func() {
				h.Search(k)
			}))
		}
	}
}

// TestAllocGateABTreeFallbackScan gates the LLX-validated range scan of
// the lock-free fallback: a scan may not allocate per internal node it
// crosses. The child snapshots it validates fit the stack (a degree is at
// most 16), so a scan of the whole tree allocates at most one object more
// than a scan inside one leaf. With b = 4, 2048 keys need at least 512
// leaves and those at least 170 internal nodes.
func TestAllocGateABTreeFallbackScan(t *testing.T) {
	tree, err := htmtree.NewABTree(htmtree.Config{Algorithm: htmtree.NonHTM, A: 2, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2048
	h := tree.NewHandle()
	for k := uint64(1); k <= keys; k++ {
		h.Insert(k, k)
	}
	out := make([]htmtree.KV, 0, keys)
	scan := func(lo, hi uint64, want int) float64 {
		return testing.AllocsPerRun(100, func() {
			if got := len(h.RangeQuery(lo, hi, out[:0])); got != want {
				t.Fatalf("RangeQuery[%d,%d) returned %d pairs, want %d", lo, hi, got, want)
			}
		})
	}
	whole, one := scan(1, keys+1, keys), scan(keys/2, keys/2+1, 1)
	if whole > one+1 {
		t.Errorf("fallback scan of %d keys: %.0f allocs, of one key: %.0f, want at most one more", keys, whole, one)
	}
	// The aggregate query runs the same walk with another leaf visitor.
	if allocs := testing.AllocsPerRun(100, func() {
		if a, err := h.RangeAgg(1, keys+1); err != nil || a.Count != keys {
			t.Fatalf("RangeAgg = %+v, %v, want %d keys", a, err, keys)
		}
	}); allocs != 0 {
		t.Errorf("fallback aggregate walk of %d keys: %.0f allocs, want 0", keys, allocs)
	}
	if st := tree.Stats().Ops; st.Fallback == 0 || st.Fast+st.Middle != 0 {
		t.Fatalf("the scans did not run on the fallback path: %+v", st)
	}
}

// TestAllocGateLatencyCapture gates per-operation latency capture into
// an internal/hist histogram — a clock read, the operation, a Record —
// which must not allocate, or measuring latency would distort the very
// tail it measures with GC pauses.
func TestAllocGateLatencyCapture(t *testing.T) {
	tree, err := htmtree.NewBST(htmtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	for k := uint64(1); k <= gateKeys; k++ {
		h.Insert(k, k)
	}
	k := uint64(gateKeys / 2)
	var lh hist.Hist
	for i := 0; i < gateWarmups; i++ {
		t0 := time.Now()
		h.Delete(k)
		h.Insert(k, k)
		lh.Record(uint64(time.Since(t0)))
	}
	gateCheck(t, "latencied delete+insert", testing.AllocsPerRun(200, func() {
		t0 := time.Now()
		h.Delete(k)
		h.Insert(k, k)
		lh.Record(uint64(time.Since(t0)))
	}))
	if lh.Count() == 0 || lh.Quantile(0.99) == 0 {
		t.Fatal("capture recorded nothing")
	}
}

// TestAllocGateObservedPointOps gates the PR 9 observability layer:
// steady-state point operations on a tree built with
// Config.Observability — latency sampling, flight-recorder events and
// trace regions armed at their defaults — must still not allocate. The
// instrumentation was designed for this: metric families are read
// closures over counters the engine already maintains, sampled latencies
// land in a preallocated atomic histogram, events are four atomic word
// stores into a preallocated ring, and the trace region is the
// runtime's shared no-op when tracing is off.
func TestAllocGateObservedPointOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}{
		{"bst", htmtree.NewBST},
		{"abtree", htmtree.NewABTree},
		{"sharded-abtree", htmtree.NewShardedABTree},
	} {
		tree, err := tc.mk(htmtree.Config{Observability: &htmtree.ObsConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Obs() == nil {
			t.Fatalf("%s: Observability set but Obs() == nil", tc.name)
		}
		h := tree.NewHandle()
		for k := uint64(1); k <= gateKeys; k++ {
			h.Insert(k, k)
		}
		k := uint64(gateKeys / 2)
		for i := 0; i < gateWarmups; i++ {
			h.Delete(k)
			h.Insert(k, k)
		}
		gateCheck(t, tc.name+" observed delete+insert", testing.AllocsPerRun(200, func() {
			h.Delete(k)
			h.Insert(k, k)
		}))
		gateCheck(t, tc.name+" observed search", testing.AllocsPerRun(200, func() {
			h.Search(k)
		}))
		if tree.Obs().LatencySnapshot().Count() == 0 {
			t.Errorf("%s: no sampled latencies recorded", tc.name)
		}
		if len(tree.Obs().Events()) == 0 {
			t.Errorf("%s: no flight-recorder events recorded", tc.name)
		}
	}
}

// TestAllocGateAbortedAttempts gates the abort path itself: an attempt
// that aborts — explicitly, by capacity, or by conflict — must not
// allocate (the unwind panics with a payload the thread owns instead of
// boxing one), so a contended workload's allocation rate no longer
// follows its abort rate. Aborts are forced through Config.Faults at a
// cadence that fails attempts in every measured run. What an operation
// does after its aborts must not allocate either, or the gate would
// measure that instead: the template's middle and lock-free fallback
// paths allocate their SCX records by design, so the trees run TLE,
// whose only other path is the fast body again under the global lock
// (where a capacity abort sends the operation at once).
func TestAllocGateAbortedAttempts(t *testing.T) {
	const (
		cyclesPerRun = 16 // x2 operations: every run sees several forced aborts
		every        = 97
		runs         = 200
	)
	for _, tc := range []struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}{
		{"bst", htmtree.NewBST},
		{"abtree", htmtree.NewABTree},
	} {
		for _, cause := range []htm.AbortCause{htm.CauseExplicit, htm.CauseCapacity, htm.CauseConflict} {
			name := tc.name + " " + cause.String() + " aborts"
			tree, err := tc.mk(htmtree.Config{
				Algorithm: htmtree.TLE,
				Faults: htmtree.NewFaultPlan(1, htmtree.FaultRule{
					Point: htmtree.FaultTxAccess, Every: every, Cause: uint8(cause),
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			h := tree.NewHandle()
			// Scrambled insertion order keeps the (unbalanced) BST shallow.
			for i := uint64(0); i < gateKeys; i++ {
				k := i*197%gateKeys + 1
				h.Insert(k, k)
			}
			k := uint64(gateKeys / 2)
			cycles := func() {
				for i := 0; i < cyclesPerRun; i++ {
					h.Delete(k)
					h.Insert(k, k)
				}
			}
			for i := 0; i < gateWarmups; i++ {
				cycles()
			}
			key := "fast/" + cause.String()
			before := tree.Stats().AbortCauses[key]
			gateCheck(t, name, testing.AllocsPerRun(runs, cycles))
			if aborted := tree.Stats().AbortCauses[key] - before; aborted < runs {
				t.Errorf("%s: only %d forced aborts in %d runs, the gate measured nothing", name, aborted, runs)
			}
		}
	}
}
