package abtree

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// A leaf entry is one (key, value) cell in an unsorted slot array; the
// leaf's order word says which slots are live and in what key order. The
// fast path fills a free slot and republishes the order word, or only
// republishes it; the template paths copy the leaf. TestNoTornSlots
// checks that no path ever shows a reader a leaf that is not one of its
// committed states. Every stored value encodes its own key, updaters
// overwrite, delete and re-insert over a small key range so leaves fill,
// split and join constantly, and readers fail on
//
//   - a value that decodes to a different key: half of one entry and half
//     of another, or an order word naming a slot not yet (or no longer)
//     holding its key — what an insert that published ord without
//     writing the slot would show;
//   - a scan that is not strictly ascending or returns a key twice: a
//     rank naming a free or stale slot — what a delete that parked the
//     wrong nibble would show.
//
// Both mutations were made by hand and fail every variant whose fast path
// edits leaves in place (3-path, 2-path-ncon, tle) and the
// pooled-leaf case (ARCHITECTURE, "Node layout"). That case checks the other way a reader can
// meet a slot that is not its leaf's: through a leaf recycled under it.
// Run it under -race. A failure prints the seed and the variant;
//
//	go test -race -run 'TestNoTornSlots/<variant>' ./internal/abtree
//
// with slotSeed set to that seed replays the same operation streams.
const slotSeed = 1

func slotVal(key, n uint64) uint64 { return key<<32 | n&0xffffffff }

func TestNoTornSlots(t *testing.T) {
	t.Parallel()
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, alg := range algorithms {
		// Occasional spurious aborts push operations off the fast path, so
		// in-place edits, node replacement and the fallback interleave.
		variants = append(variants, variant{alg.String(), Config{
			Algorithm: alg, HTM: txAborts(60, htm.CauseSpurious),
		}})
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			runNoTornSlots(t, v.name, v.cfg, slotSeed)
		})
	}
	t.Run("pooled-leaf", func(t *testing.T) {
		t.Parallel()
		for _, ordFirst := range []bool{false, true} {
			runStaleReader(t, slotSeed, ordFirst)
		}
	})
}

// runStaleReader holds a transaction open on a leaf while the leaf is
// removed on the fast path, recycled at once (Section 9) and republished
// with other pairs. Values carry the life they were written in. A reader
// that has only the leaf's pointer must abort on the order word, the
// first cell it reads; one that read the order word before the recycle
// (ordFirst) walks the slots through that stale order and may see pairs
// of the leaf's previous life — slots beyond the recycled size keep them
// — but never one of the next, and cannot commit.
func runStaleReader(t *testing.T, seed int64, ordFirst bool) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed=%d variant=pooled-leaf ordFirst=%v: %s", seed, ordFirst, fmt.Sprintf(format, args...))
	}
	tr := New(Config{A: 2, B: 4, Algorithm: engine.AlgThreePath})
	w := tr.newHandle()
	rng := rand.New(rand.NewSource(seed))
	base := uint64(rng.Intn(1000)) * 100
	for k := uint64(1); k <= 8; k++ {
		w.Insert(base+10*k, slotVal(base+10*k, 0))
	}
	var u *Node
	var sawOrd, survived bool
	var seen []kv
	atLeaf, recycled := make(chan struct{}), make(chan struct{})
	result := make(chan htm.Abort, 1)
	go func() {
		ok, ab := tr.tm.NewThread().Atomic(htm.PathFast, func(tx *htm.Tx) {
			_, _, u, _, _ = tr.searchLeaf(tx, base+10)
			var perm, size uint64
			if ordFirst {
				perm, size = u.ord.Get(tx)
				sawOrd = true
			}
			close(atLeaf)
			<-recycled
			if !ordFirst {
				leafFind(tx, u, base+10)
				survived = true
				return
			}
			for i := 0; i < int(size); i++ {
				k, v := u.slots[permAt(perm, i)].Get(tx)
				seen = append(seen, kv{k, v})
			}
			u.ord.Get(tx)
			survived = true
		})
		if ok {
			ab = htm.Abort{}
		}
		result <- ab
	}()
	<-atLeaf
	// The writer empties the tree — joins remove u on the fast path — and
	// refills it from its pool with next-life pairs under other keys.
	for k := uint64(1); k <= 8; k++ {
		w.Delete(base + 10*k)
	}
	for k := uint64(1); k <= 40; k++ { // enough splits to drain the pool
		w.Insert(base+10*k+5, slotVal(base+10*k+5, 1))
	}
	reborn := false
	for _, p := range w.RangeQuery(0, ^uint64(0)>>1, nil) {
		_, _, leaf, _, _ := tr.searchLeaf(nil, p.Key)
		reborn = reborn || leaf == u
	}
	if st := w.ReclaimStats(); st.RetiredFast == 0 || !reborn {
		fail("set-up: the reader's leaf was not recycled into the tree (%+v, reborn %v)", st, reborn)
	}
	close(recycled)
	ab := <-result
	if survived || ab.Cause != htm.CauseConflict {
		fail("reader of a recycled leaf was not aborted by a conflict (survived %v, abort %+v)", survived, ab)
	}
	if ordFirst != sawOrd {
		fail("set-up: reader read ord %v", sawOrd)
	}
	for _, p := range seen {
		if p.v != slotVal(p.k, 0) {
			fail("stale reader got pair (%d, %#x) of the leaf's next life", p.k, p.v)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		fail("%v", err)
	}
}

func runNoTornSlots(t *testing.T, name string, cfg Config, seed int64) {
	const (
		keys     = 192
		updaters = 2
		readers  = 2
		opsPerU  = 3000
	)
	tr := New(cfg)
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf("seed=%d variant=%s: %s", seed, name, fmt.Sprintf(format, args...))
	}
	check := func(what string, key, val uint64) {
		if val>>32 != key {
			fail("%s returned value %#x (of key %d) for key %d", what, val, val>>32, key)
		}
	}
	pre := tr.newHandle()
	for k := uint64(1); k <= keys; k += 2 {
		pre.Insert(k, slotVal(k, 0))
	}

	var updating sync.WaitGroup
	for g := 0; g < updaters; g++ {
		updating.Add(1)
		go func(g int) {
			defer updating.Done()
			h := tr.newHandle()
			rng := rand.New(rand.NewSource(seed*1000 + int64(g)))
			for n := uint64(1); n <= opsPerU && !failed.Load(); n++ {
				k := uint64(rng.Intn(keys)) + 1
				op := rng.Intn(4)
				if op >= 2 { // delete; half the time re-insert at once
					if old, found := h.Delete(k); found {
						check("Delete", k, old)
					}
				}
				if op != 2 {
					if old, found := h.Insert(k, slotVal(k, n)); found {
						check("Insert", k, old)
					}
				}
			}
		}(g)
	}
	var done atomic.Bool
	var reading sync.WaitGroup
	for g := 0; g < readers; g++ {
		reading.Add(1)
		go func(g int) {
			defer reading.Done()
			h := tr.newHandle()
			rng := rand.New(rand.NewSource(seed*1000 + 500 + int64(g)))
			for !done.Load() && !failed.Load() {
				lo := uint64(rng.Intn(keys)) + 1
				hi := lo + uint64(rng.Intn(48)) + 1
				switch rng.Intn(3) {
				case 0:
					if val, found := h.Search(lo); found {
						check("Search", lo, val)
					}
				case 1:
					prev := uint64(0)
					for _, p := range h.RangeQuery(lo, hi, nil) {
						check("RangeQuery", p.Key, p.Val)
						if p.Key < lo || p.Key >= hi || p.Key <= prev {
							fail("RangeQuery[%d,%d) returned key %d after %d", lo, hi, p.Key, prev)
						}
						prev = p.Key
					}
				case 2:
					a, _ := h.RangeAgg(lo, hi)
					if a.Count > 0 && (a.Count > hi-lo || a.Min < lo || a.Max >= hi || a.Min > a.Max ||
						a.Sum < a.Count*a.Min || a.Sum > a.Count*a.Max) {
						fail("RangeAgg[%d,%d) = %+v is not the aggregate of any key set in range", lo, hi, a)
					}
				}
			}
		}(g)
	}
	updating.Wait()
	done.Store(true)
	reading.Wait()
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatalf("seed=%d variant=%s: %v", seed, name, err)
	}
	for _, p := range pre.RangeQuery(0, keys+1, nil) {
		check("final RangeQuery", p.Key, p.Val)
	}
}
