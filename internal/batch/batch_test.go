package batch

import (
	"sort"
	"sync/atomic"
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
	p := New(newFake(), Config{MaxOps: 100})
	pr := p.Insert(7, 70)
	if pr.Done() {
		t.Fatal("promise done before any flush trigger")
	}
	if got := p.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	if r := pr.Wait(); r.OK {
		t.Fatalf("first insert reported existing key: %+v", r)
	}
	if got := p.Pending(); got != 0 {
		t.Fatalf("Pending after Wait = %d, want 0 (Wait must flush)", got)
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
	p := New(newFake(), Config{MaxOps: 4, Counters: ctr})
	var prs []*PointPromise
	for i := uint64(0); i < 3; i++ {
		prs = append(prs, p.Insert(i+1, i))
	}
	for i, pr := range prs {
		if pr.Done() {
			t.Fatalf("promise %d done below the size threshold", i)
		}
	}
	last := p.Insert(99, 9) // fourth op: threshold reached
	for i, pr := range append(prs, last) {
		if !pr.Done() {
			t.Fatalf("promise %d not done after threshold flush", i)
		}
	}
	st := ctr.Snapshot()
	if st.SizeFlushes != 1 || st.Flushes != 1 || st.BatchedOps != 4 {
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
	// A range query over an empty buffer runs but credits no flush.
	p.RangeQuery(0, 100)
	if st := ctr.Snapshot(); st.RangeFlushes != 0 {
		t.Fatalf("empty-buffer RangeQuery counted a flush: %+v", ctr.Snapshot())
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

func TestRangeQueryFlushSemantics(t *testing.T) {
	t.Parallel()
	// The query observes the pipeline's own buffered writes.
	p := New(newFake(), Config{MaxOps: 100})
	p.Insert(4, 40)
	got := p.RangeQuery(0, 10).Wait()
	if len(got) != 1 || got[0].Key != 4 {
		t.Fatalf("flushing RangeQuery = %v, want the buffered insert", got)
	}
}

func TestOnCompleteAfterCompletionRunsInline(t *testing.T) {
	t.Parallel()
	p := New(newFake(), Config{MaxOps: 1}) // every op flushes immediately
	pr := p.Insert(1, 10)
	if !pr.Done() {
		t.Fatal("MaxOps=1 op not executed synchronously")
	}
	var ran atomic.Bool
	pr.OnComplete(func(PointResult) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("OnComplete on a completed promise did not run inline")
	}
}
