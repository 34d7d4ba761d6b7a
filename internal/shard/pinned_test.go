package shard

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// White-box tests of the pinned cross-shard read against scripted inner
// dictionaries. A verShard is a multi-version store on the version
// clock the real shards share: every write ticks it (htm.Pin) and is
// remembered with the value, so the store can answer a range query as of
// any snapshot, which is all dict.PinnedReader promises, and the test
// can land updates at chosen steps of the protocol. With
// singleVersion set it answers as the trees on the simulated TM do, which
// keep one version of every cell: a key of the window written after the
// snapshot aborts the query. All of one test's shards append their
// updates to one history, in real time order; a result is a consistent
// cut exactly when it equals the window's content after some prefix of
// that history.

type verWrite struct {
	shard    int
	ver      uint64 // the clock value this write ticked to
	key, val uint64
	del      bool
}

type verWorld struct {
	hist   []verWrite
	shards []*verShard
}

type verShard struct {
	w        *verWorld
	idx      int
	pinnable bool
	// singleVersion makes a pinned query abort on a key of its window
	// written after its snapshot, instead of answering from the history.
	singleVersion bool
	// status, when set, is what every pinned query reports.
	status dict.PinStatus
	// beforeScan[i] runs at the start of the shard's i-th pinned query.
	beforeScan map[int]func()
	scans      int
	brackets   int // PinEnter minus PinExit
}

func newVerWorld(n int) *verWorld {
	w := &verWorld{}
	for i := 0; i < n; i++ {
		w.shards = append(w.shards, &verShard{w: w, idx: i, pinnable: true, beforeScan: map[int]func(){}})
	}
	return w
}

func (w *verWorld) dict(t *testing.T) *Dict {
	t.Helper()
	d, err := New(Config{
		Shards:  len(w.shards),
		KeySpan: uint64(len(w.shards)) * 100,
		Atomic:  true,
		New:     func(i int) dict.Dict { return w.shards[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (s *verShard) put(key, val uint64, del bool) {
	s.w.hist = append(s.w.hist, verWrite{shard: s.idx, ver: htm.Pin(), key: key, val: val, del: del})
}

// window returns the content of [lo, hi) after the first n writes of the
// history, restricted to shard (-1: every shard).
func (w *verWorld) window(n, shard int, lo, hi uint64) []dict.KV {
	m := map[uint64]uint64{}
	for _, wr := range w.hist[:n] {
		if wr.key < lo || wr.key >= hi || (shard >= 0 && wr.shard != shard) {
			continue
		}
		if wr.del {
			delete(m, wr.key)
		} else {
			m[wr.key] = wr.val
		}
	}
	out := make([]dict.KV, 0, len(m))
	for k, v := range m {
		out = append(out, dict.KV{Key: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// checkCut reports whether got is the content of [lo, hi) after some
// prefix of the history no shorter than from (what was written before
// the read began is in every cut the read may return).
func (w *verWorld) checkCut(from int, lo, hi uint64, got []dict.KV) error {
	for n := from; n <= len(w.hist); n++ {
		if reflect.DeepEqual(w.window(n, -1, lo, hi), append([]dict.KV{}, got...)) {
			return nil
		}
	}
	return fmt.Errorf("result %v is the content of [%d,%d) after no prefix of the history %+v", got, lo, hi, w.hist)
}

func (s *verShard) NewHandle() dict.Handle      { return s }
func (s *verShard) KeySum() (sum, count uint64) { return 0, 0 }

func (s *verShard) Insert(key, val uint64) (uint64, bool) { s.put(key, val, false); return 0, false }
func (s *verShard) Delete(key uint64) (uint64, bool)      { s.put(key, 0, true); return 0, false }
func (s *verShard) Search(uint64) (uint64, bool)          { return 0, false }
func (s *verShard) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	return append(out, s.w.window(len(s.w.hist), s.idx, lo, hi)...)
}

func (s *verShard) Pinnable() bool { return s.pinnable }
func (s *verShard) PinEnter()      { s.brackets++ }
func (s *verShard) PinExit()       { s.brackets-- }

// RangeAggAt folds the shard's pinned query, as the trees' handles fold
// their walks.
func (s *verShard) RangeAggAt(rv, lo, hi uint64) (dict.Agg, dict.PinStatus) {
	out, st := s.RangeQueryAt(rv, lo, hi, nil)
	return dict.Fold(out), st
}

func (s *verShard) RangeQueryAt(rv, lo, hi uint64, out []dict.KV) ([]dict.KV, dict.PinStatus) {
	if s.brackets != 1 {
		panic("pinned query outside the reclamation bracket")
	}
	if f := s.beforeScan[s.scans]; f != nil {
		f()
	}
	s.scans++
	if s.status != dict.PinCommitted {
		return out, s.status
	}
	n := 0
	for i, wr := range s.w.hist {
		if wr.shard != s.idx {
			continue
		}
		if wr.ver <= rv {
			n = i + 1
		} else if s.singleVersion && wr.key >= lo && wr.key < hi {
			return out, dict.PinAborted
		}
	}
	return append(out, s.w.window(n, s.idx, lo, hi)...), dict.PinCommitted
}

func wantStats(t *testing.T, d *Dict, want RQStats) {
	t.Helper()
	if got := d.RQStats(); got != want {
		t.Errorf("RQStats = %+v, want %+v", got, want)
	}
}

// TestPinnedUpdateAheadOfCursorFailsTheAttempt: with the snapshots
// pinned, a write to a key of the window in a shard not yet scanned
// aborts that shard's scan and with it the attempt; the retry returns
// the new content. A write to the same shard outside the window — which
// fails a sample/validate attempt, whose unit of conflict is the shard —
// does not.
func TestPinnedUpdateAheadOfCursorFailsTheAttempt(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  uint64 // written to shard 1 while shard 0 is scanned
		want RQStats
	}{
		{"inside the window", 150, RQStats{Attempts: 2, Retries: 1, Pinned: 2}},
		{"outside the window", 190, RQStats{Attempts: 1, Pinned: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newVerWorld(2)
			w.shards[1].singleVersion = true
			w.shards[0].put(10, 1, false)
			w.shards[1].put(110, 1, false)
			w.shards[0].beforeScan[0] = func() { w.shards[1].put(tc.key, 2, false) }
			from := len(w.hist)
			d := w.dict(t)
			got := d.NewHandle().RangeQuery(0, 160, nil)
			if err := w.checkCut(from, 0, 160, got); err != nil {
				t.Error(err)
			}
			wantStats(t, d, tc.want)
		})
	}
}

// TestPinnedPhaseEnds: what takes a read out of the pinned phase, and
// that the one retry/escalate loop carries it through. A shard whose
// scan does not fit a transaction ends the phase on the spot — the next
// attempt samples and validates. A read whose pinned attempts keep
// aborting spends the budget on them, escalates, and finishes under the
// gates with one plain read. And handles that cannot pin never enter the
// phase.
func TestPinnedPhaseEnds(t *testing.T) {
	const retries = DefaultRQRetries
	for _, tc := range []struct {
		name  string
		setup func(w *verWorld)
		want  RQStats
	}{
		{"unfit", func(w *verWorld) { w.shards[1].status = dict.PinUnfit },
			RQStats{Attempts: 2, Retries: 1, Pinned: 1}},
		{"aborting", func(w *verWorld) { w.shards[1].status = dict.PinAborted },
			RQStats{Attempts: retries + 1, Retries: retries, Escalations: 1, Pinned: retries, Quiesces: 2}},
		{"not pinnable", func(w *verWorld) { w.shards[1].pinnable = false },
			RQStats{Attempts: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newVerWorld(2)
			w.shards[0].put(10, 1, false)
			w.shards[1].put(110, 1, false)
			tc.setup(w)
			d := w.dict(t)
			h := d.NewHandle()
			if got, want := h.RangeQuery(0, 200, nil), w.window(len(w.hist), -1, 0, 200); !reflect.DeepEqual(got, want) {
				t.Errorf("RangeQuery = %v, want %v", got, want)
			}
			wantStats(t, d, tc.want)
			before := d.RQStats()
			agg, err := h.(dict.AggHandle).RangeAgg(0, 200)
			if want := (dict.Agg{Sum: 120, Count: 2, Min: 10, Max: 110}); err != nil || agg != want {
				t.Errorf("RangeAgg = %+v, %v, want %+v", agg, err, want)
			}
			after := d.RQStats()
			if got := after.Pinned - before.Pinned; got != tc.want.Pinned {
				t.Errorf("RangeAgg made %d pinned attempts, RangeQuery %d: the two do not share the protocol", got, tc.want.Pinned)
			}
		})
	}
}

// TestPinnedCrossShardReadTakesOnePin: an atomic read across k shards
// takes one snapshot for all of them, so it moves the version clock the
// shards share by exactly one — the Pin — and not once per shard. The
// shards are quiescent, so the read commits on its first pinned attempt,
// and the clock moves by nothing else: a committing read-only
// transaction writes no clock. It runs alone, not in parallel with the
// package's other tests, which move the same clock.
func TestPinnedCrossShardReadTakesOnePin(t *testing.T) {
	const k, width = 4, 100
	d := monitoredBST(t, Config{Shards: k, KeySpan: k * width}, engine.AlgThreePath)
	h := d.NewHandle()
	var want []dict.KV
	for key := uint64(1); key < k*width; key += 9 {
		h.Insert(key, key)
		want = append(want, dict.KV{Key: key, Val: key})
	}
	clock := htm.New(htm.Config{}).Clock()
	before := clock.Now()
	got := h.RangeQuery(0, k*width, nil)
	if moved := clock.Now() - before; moved != 1 {
		t.Errorf("an atomic read over %d shards moved the clock by %d, want 1", k, moved)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RangeQuery = %v, want %v", got, want)
	}
	wantStats(t, d, RQStats{Attempts: 1, Pinned: 1})
}
