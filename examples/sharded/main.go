// Sharded: partition the key space across independent template trees.
// Each shard is a complete 3-path tree — its own engine, simulated-HTM
// context, and fallback indicator — so update traffic on disjoint key
// ranges never shares a conflict domain. Point operations route to the
// owning shard; range queries fan out across shard boundaries and come
// back globally key-ordered, and RangeAgg folds a window to its key sum,
// count, min and max; statistics and invariant checks aggregate.
//
// With AtomicRangeQueries the fan-out is also atomic ACROSS shards:
// every shard carries a version monitor its updaters advance at commit,
// and a multi-shard read retries until no shard's version moved while
// it ran — so the merged result is a consistent cut, and KeySum may run
// concurrently with the writers.
package main

import (
	"fmt"
	"log"
	"sync"

	"htmtree"
)

func main() {
	const keySpan = 1 << 20
	tree, err := htmtree.NewShardedABTree(htmtree.Config{
		Algorithm:          htmtree.ThreePath,
		Shards:             8,
		ShardKeySpan:       keySpan, // balance the partition over the keys we will use
		AtomicRangeQueries: true,    // cross-shard reads are consistent cuts
	})
	if err != nil {
		log.Fatal(err)
	}

	// Eight writers hammer the whole key range; with eight shards their
	// transactions mostly land on different trees.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			for i := 0; i < 50000; i++ {
				k := uint64((g*50000+i)*17)%keySpan + 1
				if i%4 == 3 {
					h.Delete(k)
				} else {
					h.Insert(k, k*2)
				}
			}
		}(g)
	}
	wg.Wait()

	h := tree.NewHandle()
	sum, count := tree.KeySum()
	fmt.Printf("8 shards hold %d keys (key-sum %d)\n", count, sum)

	// This window spans several shard boundaries (shard width is
	// keySpan/8 = 131072); the fan-out result must be globally sorted.
	const shardWidth = keySpan / 8
	lo, hi := uint64(130000), uint64(400000)
	pairs := h.RangeQuery(lo, hi, nil)
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Key >= pairs[i].Key {
			log.Fatalf("fan-out range query out of order at %d", i)
		}
	}
	fmt.Printf("range [%d,%d) spans shards %d-%d: %d pairs, sorted\n",
		lo, hi, lo/shardWidth, (hi-1)/shardWidth, len(pairs))

	// The same window folded to its aggregate tuple: it must match the
	// pairs above (no writer runs any more).
	agg, err := h.RangeAgg(lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	var keySum uint64
	for _, kv := range pairs {
		keySum += kv.Key
	}
	if agg.Count != uint64(len(pairs)) || agg.Sum != keySum ||
		(len(pairs) > 0 && (agg.Min != pairs[0].Key || agg.Max != pairs[len(pairs)-1].Key)) {
		log.Fatalf("RangeAgg[%d,%d) = %+v, the pairs hold %d keys summing to %d",
			lo, hi, agg, len(pairs), keySum)
	}
	fmt.Printf("aggregate of the same window: count %d, key-sum %d, min %d, max %d\n",
		agg.Count, agg.Sum, agg.Min, agg.Max)

	if err := tree.CheckInvariants(); err != nil {
		log.Fatalf("invariant violation: %v", err)
	}
	fmt.Println("per-shard tree invariants and the partition invariant hold")

	st := tree.Stats()
	fmt.Printf("aggregate ops per path: fast=%d middle=%d fallback=%d\n",
		st.Ops.Fast, st.Ops.Middle, st.Ops.Fallback)
	fmt.Printf("aggregate transactions: %d commits, %d aborts (fast path)\n",
		st.TxCommits.Fast, st.TxAborts.Fast)
	fmt.Printf("atomic cross-shard reads: %d attempts (%d pinned), %d retries, %d escalations\n",
		st.Range.Attempts, st.Range.Pinned, st.Range.Retries, st.Range.Escalations)
}
