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
// fast and middle paths fill a free slot and republish the order word, or
// only republish it; the other paths copy the leaf. TestNoTornSlots
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
// Both mutations were made by hand and fail every variant whose first path
// edits leaves in place (3-path, 2-path-con, 2-path-ncon, tle)
// (ARCHITECTURE, "Node layout"). Run it under -race. A failure prints the seed and the variant;
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

// TestTLELockedInsertAbortsFastReader: under TLE's lock the fast body
// runs with a nil tx, so its in-place edits are immediate stores stamped
// with a tick of the clock (setPair). A fast-path
// transaction that read the leaf's order word and the free slot such an
// insert fills must abort on its next read of that slot, not return the
// new pair beside the order word it read before.
func TestTLELockedInsertAbortsFastReader(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgTLE})
	h := tr.newHandle()
	for k := uint64(1); k <= 4; k++ {
		h.Insert(k, k)
	}
	u := tr.entry.children()[0].Get(nil)
	if !u.leaf {
		t.Fatal("set-up: the root is not a leaf")
	}
	var got uint64
	read := false
	ok, ab := tr.tm.NewThread().Atomic(htm.PathFast, func(tx *htm.Tx) {
		perm, size := u.ver.Get(tx, &u.ord)
		slot := &u.slots()[permAt(perm, int(size))] // the first free slot
		u.ver.Get(tx, slot)
		// The insert as TLE runs it while holding its lock.
		h.Key, h.Val = 10, 100
		tr.insertBody(h.prims(engine.ModeFast, nil))
		h.Pool.Settle()
		got, _ = u.ver.Get(tx, slot)
		read = true
	})
	if ok || ab.Cause != htm.CauseConflict || read {
		t.Errorf("a fast-path reader of the slot a locked insert filled: committed %v, %+v, re-read returned %v (key %d); want a conflict abort at the re-read", ok, ab, read, got)
	}
	if v, found := h.Search(10); !found || v != 100 {
		t.Fatalf("locked insert not visible: Search(10) = %d, %v", v, found)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}
