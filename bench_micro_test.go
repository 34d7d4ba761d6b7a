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

// microPair is microCell for a Pair: one entry under a Block of its
// own.
type microPair struct {
	b htm.Block
	p htm.Pair
	_ [3]uint64
}

// microLeaf is a Block over an (a,b)-tree leaf's 17 entries: its order
// word and MaxB slots.
type microLeaf struct {
	b htm.Block
	e [abtree.MaxB + 1]htm.Pair
}

// BenchmarkMicroTxPairSet is BenchmarkMicroTxWriteSet for the Pair entry
// kind. Its numbered rows set one entry in each of n distinct blocks
// and commit (one lock, two value stores and one version store per
// entry); ns/entry must stay as flat from 8 to 128 as Word entries'.
// Its leaf row sets all 17 entries of one block, an (a,b)-tree leaf's,
// and commits with one lock and one version store for all of them.
func BenchmarkMicroTxPairSet(b *testing.B) {
	rows := func(n int) (name string, body func(tx *htm.Tx)) {
		cells := make([]*microPair, n)
		for i := range cells {
			cells[i] = new(microPair)
		}
		return strconv.Itoa(n), func(tx *htm.Tx) {
			for _, c := range cells {
				c.b.Set(tx, &c.p, 1, 2)
			}
		}
	}
	leaf := new(microLeaf)
	for _, n := range []int{8, 128, len(leaf.e)} {
		name, body := "leaf", func(tx *htm.Tx) {
			for i := range leaf.e {
				leaf.b.Set(tx, &leaf.e[i], 1, 2)
			}
		}
		if n != len(leaf.e) {
			name, body = rows(n)
		}
		b.Run(name, func(b *testing.B) {
			th := htm.New(htm.Config{}).NewThread()
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

// microRef is microCell for a Ref; each points at itself.
type microRef struct {
	r htm.Ref[microRef]
	_ [5]uint64
}

// BenchmarkMicroTxRead is the number for the inline transactional read
// (Word.Get, Block.Get and Ref.Get with Tx.fastRead): one read-only
// transaction that reads n separately allocated cells of one kind and
// commits, in ns per read (ns/read). The pinned variant begins its
// attempts with AtomicAt at a Clock.Pin value taken once, as a pinned
// cross-shard scan does.
func BenchmarkMicroTxRead(b *testing.B) {
	var sum uint64 // every cell holds 0, and every Ref itself
	kinds := []struct {
		name  string
		cells func(tm *htm.TM, n int) func(tx *htm.Tx)
	}{
		{"Word", func(tm *htm.TM, n int) func(tx *htm.Tx) {
			cells := microCells(tm, n)
			return func(tx *htm.Tx) {
				for _, c := range cells {
					sum += c.w.Get(tx)
				}
			}
		}},
		{"Pair", func(_ *htm.TM, n int) func(tx *htm.Tx) {
			cells := make([]*microPair, n)
			for i := range cells {
				cells[i] = new(microPair)
			}
			return func(tx *htm.Tx) {
				for _, c := range cells {
					a, b := c.b.Get(tx, &c.p)
					sum += a + b
				}
			}
		}},
		{"Ref", func(_ *htm.TM, n int) func(tx *htm.Tx) {
			cells := make([]*microRef, n)
			for i := range cells {
				cells[i] = new(microRef)
				cells[i].r.Init(cells[i])
			}
			return func(tx *htm.Tx) {
				for _, c := range cells {
					if c.r.Get(tx) != c {
						sum++
					}
				}
			}
		}},
	}
	for _, k := range kinds {
		for _, n := range []int{8, 128} {
			for _, pinned := range []bool{false, true} {
				name := k.name + "/" + strconv.Itoa(n)
				if pinned {
					name += "/pinned"
				}
				b.Run(name, func(b *testing.B) {
					tm := htm.New(htm.Config{})
					th := tm.NewThread()
					body := k.cells(tm, n)
					run := func() (bool, htm.Abort) { return th.Atomic(htm.PathFast, body) }
					if pinned {
						rv := htm.Pin()
						run = func() (bool, htm.Abort) { return th.AtomicAt(htm.PathFast, rv, body) }
					}
					run() // grows the read log to n
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if ok, _ := run(); !ok {
							b.Fatal("uncontended transaction aborted")
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/read")
				})
			}
		}
	}
	if sum != 0 {
		b.Fatal("a read returned a value no cell holds")
	}
}

// BenchmarkMicroTxInit is what re-initializing one leaf's worth of
// pooled cells costs (internal/nodepool): Init, for a node no thread can
// hold, is a plain store per value word — no atomic read-modify-write,
// which is what this number is here to keep true. ns/cell; 16 Pairs and
// one Word, the cells an (a,b)-tree leaf rewrites at most.
func BenchmarkMicroTxInit(b *testing.B) {
	var blk htm.Block
	var pairs [16]htm.Pair
	var word htm.Word
	const cells = len(pairs) + 1
	b.Run("Init", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := uint64(i)
			for j := range pairs {
				pairs[j].Init(v, v)
			}
			word.Init(v)
		}
		if a, _ := blk.Get(nil, &pairs[15]); a != uint64(b.N-1) || word.Get(nil) != a {
			b.Fatal("cells do not hold the last value stored")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
	})
}
