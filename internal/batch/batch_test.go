package batch

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"htmtree/internal/dict"
)

// fakeHandle is a sequential dict.Handle over a map that records the
// key order in which point operations executed.
type fakeHandle struct {
	m     map[uint64]uint64
	order []uint64
}

func newFake() *fakeHandle { return &fakeHandle{m: make(map[uint64]uint64)} }

func (h *fakeHandle) Insert(key, val uint64) (uint64, bool) {
	h.order = append(h.order, key)
	old, ok := h.m[key]
	h.m[key] = val
	return old, ok
}

func (h *fakeHandle) Delete(key uint64) (uint64, bool) {
	h.order = append(h.order, key)
	old, ok := h.m[key]
	delete(h.m, key)
	return old, ok
}

func (h *fakeHandle) Search(key uint64) (uint64, bool) {
	h.order = append(h.order, key)
	v, ok := h.m[key]
	return v, ok
}

func (h *fakeHandle) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	var keys []uint64
	for k := range h.m {
		if k >= lo && k < hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		out = append(out, dict.KV{Key: k, Val: h.m[k]})
	}
	return out
}

func TestWaitOnUnflushedOpFlushes(t *testing.T) {
	t.Parallel()
	ctr := &Counters{}
	fh := newFake()
	p := New(fh, Config{MaxOps: 100, Counters: ctr})
	pr := p.Insert(7, 70)
	if len(fh.order) != 0 || ctr.Snapshot() != (Stats{}) {
		t.Fatalf("op executed before any flush trigger: order %v, counters %+v", fh.order, ctr.Snapshot())
	}
	if r := pr.Wait(); r.OK {
		t.Fatalf("first insert reported existing key: %+v", r)
	}
	if st := ctr.Snapshot(); len(fh.order) != 1 || st.ExplicitFlushes != 1 || st.BatchedOps != 1 {
		t.Fatalf("after Wait: order %v, counters %+v; want the op flushed by Wait", fh.order, st)
	}
	// The op really executed: a search sees it.
	if r := p.Search(7).Wait(); !r.OK || r.Val != 70 {
		t.Fatalf("Search(7) = %+v, want (70, true)", r)
	}
}

func TestDoubleWaitIsIdempotent(t *testing.T) {
	t.Parallel()
	p := New(newFake(), Config{MaxOps: 100})
	p.Insert(1, 11).Wait()
	pr := p.Insert(1, 22)
	first := pr.Wait()
	second := pr.Wait()
	if first != second {
		t.Fatalf("Wait not idempotent: %+v then %+v", first, second)
	}
	if !first.OK || first.Val != 11 {
		t.Fatalf("second insert saw %+v, want previous value (11, true)", first)
	}
}

func TestSizeThresholdFlush(t *testing.T) {
	t.Parallel()
	ctr := &Counters{}
	fh := newFake()
	p := New(fh, Config{MaxOps: 4, Counters: ctr})
	for i := uint64(0); i < 3; i++ {
		p.Insert(i+1, i)
	}
	if len(fh.order) != 0 || ctr.Snapshot() != (Stats{}) {
		t.Fatalf("below the size threshold: order %v, counters %+v; want nothing executed", fh.order, ctr.Snapshot())
	}
	p.Insert(99, 9) // fourth op: threshold reached
	if len(fh.order) != 4 {
		t.Fatalf("executed %v after the threshold flush, want all 4 ops", fh.order)
	}
	st := ctr.Snapshot()
	if st.SizeFlushes != 1 || st.ExplicitFlushes != 0 || st.Flushes != 1 || st.BatchedOps != 4 {
		t.Fatalf("counters after threshold flush: %+v", st)
	}
}

func TestEmptyFlushIsNoop(t *testing.T) {
	t.Parallel()
	ctr := &Counters{}
	fh := newFake()
	p := New(fh, Config{MaxOps: 4, Counters: ctr})
	p.Flush()
	p.Flush()
	if st := ctr.Snapshot(); st != (Stats{}) {
		t.Fatalf("empty flushes moved counters: %+v", st)
	}
	if len(fh.order) != 0 {
		t.Fatalf("empty flush executed %d ops", len(fh.order))
	}
}

// TestPerKeyOrderAndResults checks the batch's result contract: ops on
// one key resolve as in a sequential execution preserving per-key
// enqueue order, regardless of cross-key reordering.
func TestPerKeyOrderAndResults(t *testing.T) {
	t.Parallel()
	p := New(newFake(), Config{MaxOps: 100})
	ins := p.Insert(5, 50)  // (0, false)
	sr1 := p.Search(5)      // (50, true): sees the buffered insert
	del := p.Delete(5)      // (50, true)
	sr2 := p.Search(5)      // (0, false)
	ins2 := p.Insert(2, 20) // (0, false): different key, may reorder
	p.Flush()
	if r := ins.Wait(); r.OK {
		t.Fatalf("Insert(5) = %+v, want fresh", r)
	}
	if r := sr1.Wait(); !r.OK || r.Val != 50 {
		t.Fatalf("Search(5) after insert = %+v, want (50, true)", r)
	}
	if r := del.Wait(); !r.OK || r.Val != 50 {
		t.Fatalf("Delete(5) = %+v, want (50, true)", r)
	}
	if r := sr2.Wait(); r.OK {
		t.Fatalf("Search(5) after delete = %+v, want absent", r)
	}
	if r := ins2.Wait(); r.OK {
		t.Fatalf("Insert(2) = %+v, want fresh", r)
	}
}

// TestFlushExecutesSorted checks that a flushed batch reaches the
// handle in ascending key order with same-key enqueue order preserved.
func TestFlushExecutesSorted(t *testing.T) {
	t.Parallel()
	fh := newFake()
	p := New(fh, Config{MaxOps: 100})
	keys := []uint64{9, 2, 7, 2, 5, 9}
	for _, k := range keys {
		p.Insert(k, k)
	}
	p.Flush()
	want := append([]uint64(nil), keys...)
	sort.SliceStable(want, func(i, j int) bool { return want[i] < want[j] })
	if len(fh.order) != len(want) {
		t.Fatalf("executed %d ops, want %d", len(fh.order), len(want))
	}
	for i := range want {
		if fh.order[i] != want[i] {
			t.Fatalf("execution order %v, want sorted %v", fh.order, want)
		}
	}
}

// TestWaitersOnOtherGoroutines checks the one-lock discipline under
// -race: one owner enqueues while two waiter goroutines wait on the
// futures it hands them, so a waiter's Wait is often the call that
// flushes and drives the handle. Every result must equal the sequential
// one, which the owner fixes at enqueue: a point result depends only on
// the earlier ops on its key, and those keep their enqueue order.
func TestWaitersOnOtherGoroutines(t *testing.T) {
	t.Parallel()
	const (
		numOps = 4000
		keys   = 32
	)
	type check struct {
		pr   *Promise
		want PointResult
	}
	p := New(newFake(), Config{MaxOps: 8})
	// Buffered well past MaxOps so the owner runs ahead of the waiters:
	// some futures are filled by its threshold flushes, others by a
	// waiter's Wait.
	waiters := [2]chan check{make(chan check, 64), make(chan check, 64)}
	var wg sync.WaitGroup
	for _, ch := range waiters {
		wg.Add(1)
		go func(ch chan check) {
			defer wg.Done()
			for c := range ch {
				if got := c.pr.Wait(); got != c.want {
					t.Errorf("Wait = %+v, sequential result %+v", got, c.want)
				}
			}
		}(ch)
	}
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := uint64(0); i < numOps; i++ {
		k := uint64(rng.Intn(keys))
		old, ok := model[k]
		c := check{want: PointResult{Val: old, OK: ok}}
		switch rng.Intn(3) {
		case 0:
			model[k] = i + 1
			c.pr = p.Insert(k, i+1)
		case 1:
			delete(model, k)
			c.pr = p.Delete(k)
		default:
			c.pr = p.Search(k)
		}
		waiters[rng.Intn(2)] <- c
	}
	for _, ch := range waiters {
		close(ch)
	}
	wg.Wait()
}
