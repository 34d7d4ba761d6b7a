// Focused hot-path microbenchmarks: one delete+insert+search cycle per
// iteration on a warmed tree, single-threaded — the pooled
// point-operation path the allocation gate protects. Complements the
// workload-trial benchmarks in bench_test.go (which measure throughput
// under the paper's mixed workloads) with a number that isolates
// per-operation latency and allocations.
package htmtree_test

import (
	"math/rand"
	"strconv"
	"testing"

	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

func BenchmarkMicroABTreeCycle(b *testing.B) {
	tr := abtree.New(abtree.Config{Algorithm: engine.AlgThreePath})
	h := tr.NewHandle()
	for k := uint64(1); k <= 512; k++ {
		h.Insert(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%512) + 1
		h.Delete(k)
		h.Insert(k, k)
		h.Search(k)
	}
}

// BenchmarkMicroBSTCycle inserts and cycles keys 1..512 in order, which
// builds the unbalanced BST's worst case: a 512-deep path, where search
// is most of the time and a transaction's read set is longest.
func BenchmarkMicroBSTCycle(b *testing.B) {
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	microBSTCycle(b, keys)
}

// BenchmarkMicroBSTCycleShuffled is BenchmarkMicroBSTCycle's keys in a
// seeded shuffle: the tree a random workload builds, about 2 ln 512 ≈ 12
// nodes deep on average.
func BenchmarkMicroBSTCycleShuffled(b *testing.B) {
	keys := make([]uint64, 512)
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(keys)) {
		keys[i] = uint64(k) + 1
	}
	microBSTCycle(b, keys)
}

// microBSTCycle inserts keys into a fresh BST, then runs one
// delete+insert+search cycle per iteration, over keys in their order.
func microBSTCycle(b *testing.B, keys []uint64) {
	tr := bst.New(bst.Config{Algorithm: engine.AlgThreePath})
	h := tr.NewHandle()
	for _, k := range keys {
		h.Insert(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		h.Delete(k)
		h.Insert(k, k)
		h.Search(k)
	}
}

// microCell gives each benchmark cell its own allocation, so the cells'
// addresses spread over the write-set signature the way cells of
// separately allocated tree nodes do (a contiguous array would not).
type microCell struct {
	w htm.Word
	_ [5]uint64
}

func microCells(tm *htm.TM, n int) []*microCell {
	cells := make([]*microCell, n)
	for i := range cells {
		cells[i] = new(microCell)
		cells[i].w.Bind(tm.Clock())
	}
	return cells
}

// BenchmarkMicroTxWriteSet is the regression number for write-set
// membership: one transaction that writes n distinct cells and commits.
// Each first write of a cell asks whether the cell is already in the
// write set, so with a linear scan the cost per entry (the ns/entry
// metric) grows with n, and with the signature it stays flat until the
// signature saturates.
func BenchmarkMicroTxWriteSet(b *testing.B) {
	for _, n := range []int{1, 8, 32, 128} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			tm := htm.New(htm.Config{})
			th := tm.NewThread()
			cells := microCells(tm, n)
			body := func(tx *htm.Tx) {
				for _, c := range cells {
					c.w.Set(tx, 1)
				}
			}
			th.Atomic(htm.PathFast, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, _ := th.Atomic(htm.PathFast, body); !ok {
					b.Fatal("uncontended transaction aborted")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
		})
	}
}

// microPair is microCell for a Pair.
type microPair struct {
	p htm.Pair
	_ [5]uint64
}

// BenchmarkMicroTxPairSet is BenchmarkMicroTxWriteSet for the Pair entry
// kind — what a fast-path (a,b)-tree update's leaf shift buffers: one
// transaction that sets n distinct pairs and commits (one lock, two
// value stores and one version store per entry).
func BenchmarkMicroTxPairSet(b *testing.B) {
	for _, n := range []int{8, 128} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			tm := htm.New(htm.Config{})
			th := tm.NewThread()
			cells := make([]*microPair, n)
			for i := range cells {
				cells[i] = new(microPair)
			}
			body := func(tx *htm.Tx) {
				for _, c := range cells {
					c.p.Set(tx, 1, 2)
				}
			}
			th.Atomic(htm.PathFast, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, _ := th.Atomic(htm.PathFast, body); !ok {
					b.Fatal("uncontended transaction aborted")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
		})
	}
}

// BenchmarkMicroTxReadAfterWrite is the read side of the same question:
// a transaction that has written 32 cells reads 64 others, each read
// first checking the write set for a buffered value. Read it against
// BenchmarkMicroTxWriteSet/32, which is this transaction without the
// reads.
func BenchmarkMicroTxReadAfterWrite(b *testing.B) {
	const writes, reads = 32, 64
	tm := htm.New(htm.Config{})
	th := tm.NewThread()
	written, read := microCells(tm, writes), microCells(tm, reads)
	var sum uint64
	body := func(tx *htm.Tx) {
		for _, c := range written {
			c.w.Set(tx, 1)
		}
		for _, c := range read {
			sum += c.w.Get(tx)
		}
	}
	th.Atomic(htm.PathFast, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := th.Atomic(htm.PathFast, body); !ok {
			b.Fatal("uncontended transaction aborted")
		}
	}
	if sum != 0 {
		b.Fatal("read cells are never written")
	}
}

// BenchmarkMicroTxInit is what re-initializing one leaf's worth of cells
// costs by the list the leaf came from (internal/nodepool): Init, for a
// node no thread can hold, is a plain store per value word — no atomic
// read-modify-write, which is what this number is here to keep true —
// against Recycle, for a node a stale transactional reader may still
// hold: a CAS to lock the version word, a clock load, and an XCHG per
// value and version store. ns/cell; 16 Pairs and one Word, the cells an
// (a,b)-tree leaf rewrites at most.
func BenchmarkMicroTxInit(b *testing.B) {
	tm := htm.New(htm.Config{})
	var pairs [16]htm.Pair
	var word htm.Word
	word.Bind(tm.Clock())
	const cells = len(pairs) + 1
	for _, c := range []struct {
		name string
		run  func(v uint64)
	}{
		{"Init", func(v uint64) {
			for i := range pairs {
				pairs[i].Init(v, v)
			}
			word.Init(v)
		}},
		{"Recycle", func(v uint64) {
			for i := range pairs {
				pairs[i].Recycle(tm.Clock(), v, v)
			}
			word.Recycle(v)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run(uint64(i))
			}
			if a, _ := pairs[15].Get(nil); a != uint64(b.N-1) || word.Get(nil) != a {
				b.Fatal("cells do not hold the last value stored")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		})
	}
}
