package shard

import (
	"sort"
	"testing"

	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
)

// sortedOps builds a stable-key-sorted batch the way the batching
// layer would, from (kind, key, val) triples in enqueue order.
func sortedOps(tr []dict.BatchOp) []dict.BatchOp {
	ops := append([]dict.BatchOp(nil), tr...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	return ops
}

// TestExecGroupMatchesPerOpDispatch runs the same operation stream
// through ExecGroup and through plain per-op dispatch on a twin
// dictionary and requires identical results and final content.
func TestExecGroupMatchesPerOpDispatch(t *testing.T) {
	t.Parallel()
	const span = 1 << 10
	batched := newShardedBST(t, 8, span)
	plain := newShardedBST(t, 8, span)
	bh := batched.NewHandle().(*handle)
	ph := plain.NewHandle()

	var stream []dict.BatchOp
	for i := 0; i < 500; i++ {
		k := uint64((i*293)%span) + 1
		switch i % 5 {
		case 0, 1:
			stream = append(stream, dict.BatchOp{Kind: dict.OpInsert, Key: k, Val: k * 3})
		case 2:
			stream = append(stream, dict.BatchOp{Kind: dict.OpDelete, Key: k})
		default:
			stream = append(stream, dict.BatchOp{Kind: dict.OpSearch, Key: k})
		}
	}
	for base := 0; base < len(stream); base += 64 {
		end := base + 64
		if end > len(stream) {
			end = len(stream)
		}
		group := sortedOps(stream[base:end])
		bh.ExecGroup(group)
		// The plain twin executes the same sorted order, so per-op
		// results must agree exactly.
		for i := range group {
			var want dict.BatchOp
			want = group[i]
			want.Out, want.OutOK = 0, false
			want.Exec(ph)
			if want.Out != group[i].Out || want.OutOK != group[i].OutOK {
				t.Fatalf("op %d (%+v): group result (%d,%v), per-op (%d,%v)",
					base+i, group[i], group[i].Out, group[i].OutOK, want.Out, want.OutOK)
			}
		}
	}
	bs, bc := batched.KeySum()
	ps, pc := plain.KeySum()
	if bs != ps || bc != pc {
		t.Fatalf("KeySum diverged: batched (%d,%d), plain (%d,%d)", bs, bc, ps, pc)
	}
	if err := batched.CheckPartition(); err != nil {
		t.Fatal(err)
	}
	st := batched.BatchCounters().Snapshot()
	if st.GroupOps != 500 || st.Groups == 0 {
		t.Fatalf("batch counters = %+v, want 500 ops in >0 groups", st)
	}
	// Ordered segmentation on a static router: one routing decision per
	// group and no monitor admissions (the dictionary has no monitors).
	if st.RouterLookups != st.Groups {
		t.Fatalf("ordered segmentation took %d lookups for %d groups", st.RouterLookups, st.Groups)
	}
	if st.MonitorBrackets != 0 || st.Restarts != 0 {
		t.Fatalf("unmonitored dictionary bracketed monitors: %+v", st)
	}
}

// TestExecGroupHashRouter checks group execution under an unordered
// router: buckets by owner, per-op routing, per-key order preserved.
func TestExecGroupHashRouter(t *testing.T) {
	t.Parallel()
	r, err := NewHashRouter(8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Shards: 8,
		Router: r,
		New: func(int, *engine.UpdateMonitor) dict.Dict {
			return bst.New(bst.Config{Algorithm: engine.AlgThreePath})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := d.NewHandle().(*handle)
	// Insert then delete the same key inside one group: per-key order
	// must survive bucketing, so the delete sees the insert.
	ops := sortedOps([]dict.BatchOp{
		{Kind: dict.OpInsert, Key: 10, Val: 100},
		{Kind: dict.OpDelete, Key: 10},
		{Kind: dict.OpInsert, Key: 11, Val: 110},
		{Kind: dict.OpSearch, Key: 11},
	})
	h.ExecGroup(ops)
	for _, op := range ops {
		switch {
		case op.Kind == dict.OpDelete && (!op.OutOK || op.Out != 100):
			t.Fatalf("delete after same-group insert: (%d,%v)", op.Out, op.OutOK)
		case op.Kind == dict.OpSearch && (!op.OutOK || op.Out != 110):
			t.Fatalf("search after same-group insert: (%d,%v)", op.Out, op.OutOK)
		}
	}
	st := d.BatchCounters().Snapshot()
	if st.GroupOps != 4 || st.RouterLookups != 4 {
		t.Fatalf("hash grouping stats = %+v, want per-op lookups", st)
	}
	if err := d.CheckPartition(); err != nil {
		t.Fatal(err)
	}
}

// TestStaticHandleCachesRouting proves the satellite fix: on a
// dictionary without a rebalancer, a handle routes through a pointer
// cached at registration and never reloads the published table — the
// per-op atomic load is gone. The proof is behavioral: swap the
// published table out from under the handle (illegal in production —
// only migrations swap, and only on rebalancing dictionaries) and
// observe the handle still routing by the table it cached.
func TestStaticHandleCachesRouting(t *testing.T) {
	t.Parallel()
	const span = 1 << 10
	d := newShardedBST(t, 4, span)
	h := d.NewHandle().(*handle)
	if h.router == nil {
		t.Fatal("static handle did not cache the routing table")
	}

	// Key 1 lives in shard 0 under the cached table. Publish a rotated
	// table that would route it to shard 3; the handle must not notice.
	h.Insert(1, 11)
	rot, err := NewRangeRouter(4, span)
	if err != nil {
		t.Fatal(err)
	}
	rotated := rot.(*rangeRouter).withBoundary(1, 1) // shard 1 owns [1, …): key 1 moves owners
	d.rt.Store(&routing{r: rotated})
	if got := d.ShardFor(1); got != 1 {
		t.Fatalf("published table routes key 1 to shard %d, want 1 (swap had no effect)", got)
	}
	if v, ok := h.Search(1); !ok || v != 11 {
		t.Fatalf("handle consulted the swapped table: Search(1) = (%d,%v)", v, ok)
	}
	if _, ok := h.Delete(1); !ok {
		t.Fatal("handle consulted the swapped table on the update path")
	}

	// A rebalancing dictionary's handles must keep loading the
	// published pointer (migrations swap it live).
	rd, err := New(Config{
		Shards:    4,
		KeySpan:   span,
		Rebalance: &RebalanceConfig{},
		New: func(_ int, mon *engine.UpdateMonitor) dict.Dict {
			return bst.New(bst.Config{Algorithm: engine.AlgThreePath, Engine: engine.Config{Monitor: mon}})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rh := rd.NewHandle().(*handle)
	if rh.router != nil {
		t.Fatalf("rebalancing handle cached the routing table %v", rh.router)
	}
}

// BenchmarkPointOpRouting is the regression benchmark for the cached
// routing table: static routes through a handle-cached pointer, live
// through the published atomic (what every op paid before the fix).
func BenchmarkPointOpRouting(b *testing.B) {
	const span = 1 << 20
	mk := func(reb *RebalanceConfig) *Dict {
		d, err := New(Config{
			Shards:    8,
			KeySpan:   span,
			Rebalance: reb,
			New: func(_ int, mon *engine.UpdateMonitor) dict.Dict {
				return bst.New(bst.Config{Algorithm: engine.AlgThreePath, Engine: engine.Config{Monitor: mon}})
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("static-cached", func(b *testing.B) {
		h := mk(nil).NewHandle()
		for i := 0; i < b.N; i++ {
			h.Search(uint64(i)%span + 1)
		}
	})
	b.Run("live-atomic", func(b *testing.B) {
		// Huge CheckOps: the rebalancer never evaluates, so the
		// difference measured is exactly the admission + rt.Load cost.
		h := mk(&RebalanceConfig{CheckOps: 1 << 30}).NewHandle()
		for i := 0; i < b.N; i++ {
			h.Search(uint64(i)%span + 1)
		}
	})
}
