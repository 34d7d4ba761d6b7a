package htmtree_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"htmtree"
)

func TestFacadeBothTreesAllAlgorithms(t *testing.T) {
	t.Parallel()
	type ctor struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}
	for _, c := range []ctor{{"bst", htmtree.NewBST}, {"abtree", htmtree.NewABTree}} {
		for _, alg := range htmtree.Algorithms() {
			c, alg := c, alg
			t.Run(c.name+"/"+string(alg), func(t *testing.T) {
				t.Parallel()
				tree, err := c.mk(htmtree.Config{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				h := tree.NewHandle()
				for k := uint64(1); k <= 100; k++ {
					if _, existed := h.Insert(k, k*3); existed {
						t.Fatalf("Insert(%d) reported existing", k)
					}
				}
				if v, ok := h.Search(50); !ok || v != 150 {
					t.Fatalf("Search(50) = %d,%v", v, ok)
				}
				out := h.RangeQuery(10, 20, nil)
				if len(out) != 10 || out[0].Key != 10 || out[9].Key != 19 {
					t.Fatalf("RangeQuery(10,20) = %v", out)
				}
				for k := uint64(1); k <= 100; k += 2 {
					if _, existed := h.Delete(k); !existed {
						t.Fatalf("Delete(%d) missed", k)
					}
				}
				if sum, count := tree.KeySum(); count != 50 {
					t.Fatalf("KeySum = %d,%d want 50 keys", sum, count)
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				st := tree.Stats()
				if st.Ops.Total() == 0 {
					t.Fatal("no operations recorded")
				}
			})
		}
	}
}

func TestFacadeShardedTrees(t *testing.T) {
	t.Parallel()
	type ctor struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}
	for _, c := range []ctor{{"bst", htmtree.NewShardedBST}, {"abtree", htmtree.NewShardedABTree}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tree, err := c.mk(htmtree.Config{
				Algorithm:    htmtree.ThreePath,
				Shards:       4,
				ShardKeySpan: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := tree.NewHandle()
					for k := uint64(g); k < 1000; k += 4 {
						h.Insert(k+1, (k+1)*10)
					}
				}(g)
			}
			wg.Wait()
			h := tree.NewHandle()
			if v, ok := h.Search(500); !ok || v != 5000 {
				t.Fatalf("Search(500) = (%d,%v), want (5000,true)", v, ok)
			}
			// A range query spanning every shard boundary (shard width 250)
			// must come back complete and globally key-ordered.
			out := h.RangeQuery(1, 1001, nil)
			if len(out) != 1000 {
				t.Fatalf("full RangeQuery returned %d pairs, want 1000", len(out))
			}
			for i, kv := range out {
				if kv.Key != uint64(i+1) || kv.Val != uint64(i+1)*10 {
					t.Fatalf("RangeQuery[%d] = (%d,%d), want (%d,%d)",
						i, kv.Key, kv.Val, i+1, (i+1)*10)
				}
			}
			if sum, count := tree.KeySum(); count != 1000 || sum != 1000*1001/2 {
				t.Fatalf("KeySum = (%d,%d), want (%d,1000)", sum, count, 1000*1001/2)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if st := tree.Stats(); st.Ops.Total() == 0 {
				t.Fatal("sharded Stats recorded no operations")
			}
		})
	}
	// Config errors surface through the sharded constructors too.
	if _, err := htmtree.NewShardedBST(htmtree.Config{Algorithm: "bogus"}); err == nil {
		t.Fatal("NewShardedBST accepted an unknown algorithm")
	}
	if _, err := htmtree.NewShardedABTree(htmtree.Config{Shards: -3}); err == nil {
		t.Fatal("NewShardedABTree accepted a negative shard count")
	}
	if _, err := htmtree.NewShardedBST(htmtree.Config{Router: "bogus"}); err == nil {
		t.Fatal("NewShardedBST accepted an unknown router")
	}
	if _, err := htmtree.NewShardedBST(htmtree.Config{Router: htmtree.RouterAdaptive, RebalanceRatio: -1}); err == nil {
		t.Fatal("NewShardedBST accepted a negative rebalance ratio")
	}
}

// TestFacadeRouters drives the sharded facade under every routing
// policy: operations behave identically, and the adaptive router
// surfaces its rebalancing counters through Stats.
func TestFacadeRouters(t *testing.T) {
	t.Parallel()
	for _, router := range htmtree.RouterKinds() {
		router := router
		t.Run(string(router), func(t *testing.T) {
			t.Parallel()
			tree, err := htmtree.NewShardedBST(htmtree.Config{
				Algorithm:         htmtree.ThreePath,
				Shards:            4,
				ShardKeySpan:      1 << 12,
				Router:            router,
				RebalanceCheckOps: 64,
				RebalanceRatio:    0.01,
			})
			if err != nil {
				t.Fatal(err)
			}
			h := tree.NewHandle()
			var wantSum, wantCount uint64
			for i := 0; i < 20000; i++ {
				k := uint64(i%600) + 1 // skewed into the low shard
				if i%3 == 2 {
					if _, existed := h.Delete(k); existed {
						wantSum -= k
						wantCount--
					}
				} else {
					if _, existed := h.Insert(k, k); !existed {
						wantSum += k
						wantCount++
					}
				}
			}
			sum, count := tree.KeySum()
			if sum != wantSum || count != wantCount {
				t.Fatalf("KeySum = (%d,%d), want (%d,%d)", sum, count, wantSum, wantCount)
			}
			out := h.RangeQuery(1, 601, nil)
			if uint64(len(out)) != count {
				t.Fatalf("RangeQuery returned %d pairs, want %d", len(out), count)
			}
			for i := 1; i < len(out); i++ {
				if out[i-1].Key >= out[i].Key {
					t.Fatalf("fan-out unsorted at %d under %s routing", i, router)
				}
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := tree.Stats()
			if router == htmtree.RouterAdaptive && st.Rebalance.Migrations == 0 {
				t.Fatalf("adaptive tree reported no migrations: %+v", st.Rebalance)
			}
			if router != htmtree.RouterAdaptive && (st.Rebalance.Migrations != 0 || st.Rebalance.Checks != 0) {
				t.Fatalf("non-adaptive tree reported rebalancing: %+v", st.Rebalance)
			}
		})
	}
}

func TestFacadeRejectsBadConfig(t *testing.T) {
	t.Parallel()
	if _, err := htmtree.NewBST(htmtree.Config{Algorithm: "bogus"}); err == nil {
		t.Fatal("NewBST accepted an unknown algorithm")
	}
	if _, err := htmtree.NewABTree(htmtree.Config{A: 6, B: 7}); err == nil {
		t.Fatal("NewABTree accepted b < 2a-1")
	}
	for _, cfg := range []htmtree.Config{{B: 17}, {A: 8, B: 17}} {
		_, err := htmtree.NewABTree(cfg)
		if err == nil || !strings.Contains(err.Error(), "invalid degree bounds") ||
			!strings.Contains(err.Error(), "b=17") || !strings.Contains(err.Error(), "<=16") {
			t.Fatalf("NewABTree(%+v) = %v, want an invalid degree bounds error naming b=17 and the limit 16", cfg, err)
		}
	}
	if _, err := htmtree.NewShardedABTree(htmtree.Config{B: 17}); err == nil {
		t.Fatal("NewShardedABTree accepted b > 16")
	}
	if _, err := htmtree.NewABTree(htmtree.Config{A: 8, B: 16}); err != nil {
		t.Fatalf("NewABTree rejected a=8 b=16: %v", err)
	}
}

func TestFacadeConcurrentUse(t *testing.T) {
	t.Parallel()
	tree, err := htmtree.NewABTree(htmtree.Config{Algorithm: htmtree.ThreePath})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			for i := 0; i < 2000; i++ {
				k := uint64((g*2000+i)%500) + 1
				switch i % 3 {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Delete(k)
				case 2:
					h.Search(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.TxCommits.Fast == 0 {
		t.Fatal("no fast-path commits recorded")
	}
}

// TestAsyncHandleQuickstart exercises the asynchronous API end to end
// on an unsharded tree: futures, callbacks, flush triggers, and
// read-your-writes range queries.
func TestAsyncHandleQuickstart(t *testing.T) {
	t.Parallel()
	tree, err := htmtree.NewABTree(htmtree.Config{BatchMaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	ah := tree.NewAsyncHandle()
	fut := ah.Insert(42, 420)
	if fut.Done() {
		t.Fatal("future resolved before any flush trigger")
	}
	if v, ok := ah.Search(42).Wait(); !ok || v != 420 {
		t.Fatalf("async Search(42) = (%d,%v), want (420,true)", v, ok)
	}
	if _, ok := fut.Wait(); ok {
		t.Fatal("first insert reported an existing key")
	}
	got := ah.RangeQuery(0, 100).Wait()
	if len(got) != 1 || got[0].Key != 42 || got[0].Val != 420 {
		t.Fatalf("async RangeQuery = %v", got)
	}
	st := tree.Stats()
	if st.Batch.Flushes == 0 || st.Batch.BatchedOps != 2 {
		t.Fatalf("Stats.Batch = %+v, want 2 batched ops", st.Batch)
	}
}

// TestBatchContextOverHandle exercises Handle.Batch: the context
// shares the handle's registration, flushes on the calling goroutine
// only, and hands the handle back after Flush.
func TestBatchContextOverHandle(t *testing.T) {
	t.Parallel()
	tree, err := htmtree.NewShardedBST(htmtree.Config{Shards: 4, ShardKeySpan: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	h := tree.NewHandle()
	b := h.Batch()
	var futs []htmtree.PointFuture
	for k := uint64(1); k <= 20; k++ {
		futs = append(futs, b.Insert(k, k*10))
	}
	b.Flush()
	for i, f := range futs {
		if _, ok := f.Wait(); ok {
			t.Fatalf("insert %d reported an existing key", i)
		}
	}
	// The plain handle sees the batch's writes.
	if v, ok := h.Search(7); !ok || v != 70 {
		t.Fatalf("Search(7) through the shared handle = (%d,%v)", v, ok)
	}
}

// TestBatchAmortizationCounts asserts the acceptance criterion on a
// host-independent metric: at batch size 64 on an 8-shard rebalancing
// tree, group execution must cut both the router-lookup and the
// monitor-bracket count at least 4x versus unbatched dispatch (which
// pays one of each per operation).
func TestBatchAmortizationCounts(t *testing.T) {
	t.Parallel()
	const (
		keySpan  = 1 << 16
		batches  = 50
		batchLen = 64
	)
	tree, err := htmtree.NewShardedABTree(htmtree.Config{
		Shards:       8,
		ShardKeySpan: keySpan,
		Router:       htmtree.RouterAdaptive, // admitting handles: brackets are counted
		// A huge evaluation window keeps migrations out of the
		// measurement, so the counts reflect pure batched dispatch.
		RebalanceCheckOps: 1 << 30,
		BatchMaxOps:       batchLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	ah := tree.NewAsyncHandle()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < batches*batchLen; i++ {
		k := uint64(rng.Intn(keySpan)) + 1
		if i%2 == 0 {
			ah.Insert(k, k)
		} else {
			ah.Delete(k)
		}
	}
	ah.Flush()
	st := tree.Stats().Batch
	if st.GroupOps != batches*batchLen {
		t.Fatalf("GroupOps = %d, want %d", st.GroupOps, batches*batchLen)
	}
	if st.RouterLookups == 0 || st.MonitorBrackets == 0 {
		t.Fatalf("amortization counters empty: %+v", st)
	}
	if ratio := float64(st.GroupOps) / float64(st.RouterLookups); ratio < 4 {
		t.Fatalf("router lookups amortized only %.2fx (unbatched pays %d, batched paid %d)",
			ratio, st.GroupOps, st.RouterLookups)
	}
	if ratio := float64(st.GroupOps) / float64(st.MonitorBrackets); ratio < 4 {
		t.Fatalf("monitor brackets amortized only %.2fx (unbatched pays %d, batched paid %d)",
			ratio, st.GroupOps, st.MonitorBrackets)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
