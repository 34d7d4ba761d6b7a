// Adaptive routing: survive a skewed workload without giving up range
// queries. A range-partitioned sharded tree collapses onto one shard
// when the keys are hot at one end (every update lands on the shard
// owning the hot range — exactly the conflict domain sharding was
// supposed to split). Config.Router offers two range splits:
//
//   - RouterRange (default): uniform and fixed — fast, order-preserving,
//     skew-sensitive.
//   - RouterAdaptive (shown here): keep range routing, watch per-shard
//     operation counters, and migrate boundary slices of a hot shard's
//     key range to its neighbors at runtime. A migration briefly
//     quiesces exactly the two shards touching the moved boundary
//     (the same per-shard monitor gates that make AtomicRangeQueries
//     work), moves the keys, and atomically publishes a new routing
//     table — point lookups, range queries and key sums stay correct
//     throughout.
package main

import (
	"fmt"
	"log"
	"sync"

	"htmtree"
)

func main() {
	const keySpan = 1 << 16
	tree, err := htmtree.NewShardedABTree(htmtree.Config{
		Algorithm:    htmtree.ThreePath,
		Shards:       8,
		ShardKeySpan: keySpan,
		Router:       htmtree.RouterAdaptive,
		// React quickly for the demo; defaults are more patient.
		RebalanceCheckOps: 512,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Hot-range workload: 90% of the updates hammer the lowest 1/8 of
	// the key space — with static range routing, all of that would
	// serialize on shard 0.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			rng := uint64(g)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < 300000; i++ {
				var k uint64
				if next()%10 != 0 {
					k = next()%(keySpan/8) + 1 // hot head
				} else {
					k = next()%keySpan + 1
				}
				if i%4 == 3 {
					h.Delete(k)
				} else {
					h.Insert(k, k*2)
				}
			}
		}(g)
	}
	wg.Wait()

	st := tree.Stats()
	fmt.Printf("rebalancer: %d imbalance checks, %d migrations, %d keys moved\n",
		st.Rebalance.Checks, st.Rebalance.Migrations, st.Rebalance.KeysMoved)
	if st.Rebalance.Migrations == 0 {
		log.Fatal("expected the hot head to trigger migrations")
	}

	// Range queries and key sums survived every migration: the fan-out
	// revalidates per-shard versions, so each result is a consistent cut.
	h := tree.NewHandle()
	pairs := h.RangeQuery(1, keySpan/8, nil)
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Key >= pairs[i].Key {
			log.Fatalf("range query out of order at %d", i)
		}
	}
	sum, count := tree.KeySum()
	fmt.Printf("hot range holds %d keys; tree-wide %d keys (key-sum %d)\n",
		len(pairs), count, sum)

	if err := tree.CheckInvariants(); err != nil {
		log.Fatalf("invariant violation after migrations: %v", err)
	}
	fmt.Println("per-shard tree invariants and the partition invariant hold")
	rq := tree.Stats().Range // refreshed: the reads above count too
	fmt.Printf("atomic cross-shard reads: %d attempts, %d retries, %d escalations\n",
		rq.Attempts, rq.Retries, rq.Escalations)
}
