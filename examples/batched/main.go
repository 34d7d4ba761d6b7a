// Batched: amortize per-operation overhead with the asynchronous API.
//
// Every point operation on a sharded tree pays a fixed toll before it
// touches a node: handle dispatch, a routing-table lookup, and — when
// the tree's range queries are atomic — a monitor admission bracket. An AsyncHandle
// buffers operations and flushes them as one key-sorted, shard-grouped
// batch, so that toll is paid once per shard-group instead of once per
// op. Results come back through futures: Wait returns the result,
// flushing the buffer first if the op is still in it. Flush drains the
// buffer, after which a plain Handle reads what the batches wrote.
//
// Stats.Batch shows the amortization directly as ops per shard-group —
// one routing lookup and one monitor admission each — where an unbatched
// stream pays 1. The writers below insert short ascending key runs, so a
// batch of 64 mostly lands on one shard and the ratio nears 64; uniform
// random keys over 8 shards would cut it to about 8.
package main

import (
	"fmt"
	"log"
	"slices"
	"sync"

	"htmtree"
)

func main() {
	const keySpan = 1 << 20
	tree, err := htmtree.NewShardedABTree(htmtree.Config{
		Algorithm:    htmtree.ThreePath,
		Shards:       8,
		ShardKeySpan: keySpan,
		BatchMaxOps:  64,
		// Atomic range queries make the handles admit every update on
		// its shard's monitor: the brackets are visible in the stats.
		AtomicRangeQueries: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Four writers push batched inserts; futures settle per batch.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ah := tree.NewAsyncHandle()
			futs := make([]htmtree.PointFuture, 0, 64)
			for i := 0; i < 50000; i++ {
				k := uint64((g*50000+i)*17)%keySpan + 1
				futs = append(futs, ah.Insert(k, k*2))
				if len(futs) == cap(futs) {
					ah.Flush()
					for _, f := range futs {
						f.Wait() // already resolved; returns (old, existed)
					}
					futs = futs[:0]
				}
			}
			ah.Flush()
		}(g)
	}
	wg.Wait()

	// Flush, then read back through a plain handle: the range query
	// sees the flushed insert.
	ah := tree.NewAsyncHandle()
	ins := ah.Insert(7, 77)
	ah.Flush()
	old, existed := ins.Wait()
	fmt.Printf("insert(7) completed: old=%d existed=%v\n", old, existed)
	pairs := tree.NewHandle().RangeQuery(1, 20, nil)
	if !slices.Contains(pairs, htmtree.KV{Key: 7, Val: 77}) {
		log.Fatalf("range [1,20) = %v, want the flushed insert (7, 77)", pairs)
	}
	fmt.Printf("range [1,20) sees %d keys, among them (7, 77)\n", len(pairs))

	// Waiting on a still-buffered future flushes implicitly.
	fut := ah.Delete(7)
	if old, existed := fut.Wait(); !existed || old != 77 {
		log.Fatalf("delete(7) = (%d,%v), want (77,true)", old, existed)
	}

	st := tree.Stats()
	sum, count := tree.KeySum()
	fmt.Printf("tree holds %d keys (key-sum %d)\n", count, sum)
	fmt.Printf("batch: %d ops in %d flushes (%.1f ops/flush), %d shard-groups\n",
		st.Batch.BatchedOps, st.Batch.Flushes,
		float64(st.Batch.BatchedOps)/float64(st.Batch.Flushes), st.Batch.Groups)
	if st.Batch.Groups == 0 {
		log.Fatal("no shard groups: the handles executed nothing as groups")
	}
	fmt.Printf("amortization: %.1f ops per group, each group one routing decision and one monitor admission (unbatched pays one of each per op)\n",
		float64(st.Batch.GroupOps)/float64(st.Batch.Groups))

	if err := tree.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("invariants OK")
}
