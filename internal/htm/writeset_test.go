package htm

import (
	"fmt"
	"testing"
)

// Write-set tests: the signature in front of the write-set scan must be
// invisible. Random transactions over few and many cells — past the
// point where the 256-bit signature saturates and every lookup scans —
// are checked against a map model, and capacity must count entries, not
// accesses.

type wsNode struct{ id int }

// wsModel is the sequential model of a set of cells: committed values
// plus one transaction's pending effects.
type wsModel struct {
	words []uint64
	refs  []*wsNode
	pairs [][2]uint64

	wordSet map[int]uint64
	refSet  map[int]*wsNode
	pairSet map[int][2]uint64
}

func (m *wsModel) begin() {
	m.wordSet = map[int]uint64{}
	m.refSet = map[int]*wsNode{}
	m.pairSet = map[int][2]uint64{}
}

func (m *wsModel) commit() {
	for i, v := range m.wordSet {
		m.words[i] = v
	}
	for i, p := range m.refSet {
		m.refs[i] = p
	}
	for i, v := range m.pairSet {
		m.pairs[i] = v
	}
}

func (m *wsModel) word(i int) uint64 {
	if v, ok := m.wordSet[i]; ok {
		return v
	}
	return m.words[i]
}

func (m *wsModel) ref(i int) *wsNode {
	if p, ok := m.refSet[i]; ok {
		return p
	}
	return m.refs[i]
}

func (m *wsModel) pair(i int) [2]uint64 {
	if v, ok := m.pairSet[i]; ok {
		return v
	}
	return m.pairs[i]
}

func TestWriteSetAgainstModel(t *testing.T) {
	t.Parallel()
	for _, cells := range []int{1, 2, 7, 40, 300, 600} {
		cells := cells
		t.Run(fmt.Sprintf("sim/%d", cells), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 4; seed++ {
				runWriteSetModel(t, cells, seed)
			}
		})
	}
}

func runWriteSetModel(t *testing.T, cells int, seed uint64) {
	tm := New(Config{})
	th := tm.NewThread()
	rng := seed * 0x9e3779b97f4a7c15
	next := func(n int) int {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(n))
	}

	// Cells of the three kinds, each in its own allocation-sized struct
	// so their addresses spread the way tree nodes' do.
	words := make([]*Word, cells)
	refs := make([]*Ref[wsNode], cells)
	pairs := make([]*Pair, cells)
	nodes := make([]*wsNode, 8)
	for i := range nodes {
		nodes[i] = &wsNode{id: i}
	}
	m := &wsModel{words: make([]uint64, cells), refs: make([]*wsNode, cells), pairs: make([][2]uint64, cells)}
	for i := 0; i < cells; i++ {
		words[i], refs[i], pairs[i] = new(Word), new(Ref[wsNode]), new(Pair)
	}

	for txn := 0; txn < 12; txn++ {
		// Up to ~3 accesses per cell: small sets stay below signature
		// saturation, 600 cells of three kinds go far beyond it (and up
		// to, but not over, the default WriteCapacity of 1024).
		steps := 1 + next(3*cells)
		if steps > 1000 {
			steps = 1000
		}
		abort := next(4) == 0
		m.begin()
		ok, ab := th.Atomic(PathFast, func(tx *Tx) {
			for s := 0; s < steps; s++ {
				if len(tx.writes) >= DefaultWriteCapacity-1 {
					break
				}
				i := next(cells)
				switch next(8) {
				case 0, 1: // Word.Get
					if got, want := words[i].Get(tx), m.word(i); got != want {
						t.Fatalf("seed %d txn %d: word %d reads %d, model %d", seed, txn, i, got, want)
					}
				case 2: // Word.Set
					v := uint64(next(1 << 20))
					words[i].Set(tx, v)
					m.wordSet[i] = v
				case 3: // Word.CAS
					old := m.word(i)
					if next(2) == 0 {
						old++ // must fail
					}
					v := uint64(next(1 << 20))
					want := old == m.word(i)
					if got := words[i].CAS(tx, old, v); got != want {
						t.Fatalf("seed %d txn %d: word %d CAS = %v, model %v", seed, txn, i, got, want)
					}
					if want {
						m.wordSet[i] = v
					}
				case 4: // Ref.Get
					if got, want := refs[i].Get(tx), m.ref(i); got != want {
						t.Fatalf("seed %d txn %d: ref %d reads %p, model %p", seed, txn, i, got, want)
					}
				case 5: // Ref.Set / CAS, nil included
					p := nodes[next(len(nodes))]
					if next(4) == 0 {
						p = nil
					}
					if next(2) == 0 {
						refs[i].Set(tx, p)
					} else if !refs[i].CAS(tx, m.ref(i), p) {
						t.Fatalf("seed %d txn %d: ref %d CAS from its own value failed", seed, txn, i)
					}
					m.refSet[i] = p
				case 6: // Pair.Get, reading back a buffered Set
					a, b := pairs[i].Get(tx)
					if want := m.pair(i); a != want[0] || b != want[1] {
						t.Fatalf("seed %d txn %d: pair %d reads (%d,%d), model %v", seed, txn, i, a, b, want)
					}
				case 7: // Pair.Set
					v := [2]uint64{uint64(next(1 << 20)), uint64(next(1 << 20))}
					pairs[i].Set(tx, v[0], v[1])
					m.pairSet[i] = v
				}
			}
			if abort {
				tx.Abort(9)
			}
		})
		switch {
		case abort:
			if ok || ab.Cause != CauseExplicit || ab.Code != 9 {
				t.Fatalf("seed %d txn %d: aborting transaction returned ok=%v %+v", seed, txn, ok, ab)
			}
		case !ok:
			t.Fatalf("seed %d txn %d: uncontended transaction aborted: %+v", seed, txn, ab)
		default:
			m.commit()
		}
		for i := 0; i < cells; i++ {
			if got := words[i].Get(nil); got != m.words[i] {
				t.Fatalf("seed %d after txn %d: word %d = %d, model %d", seed, txn, i, got, m.words[i])
			}
			if got := refs[i].Get(nil); got != m.refs[i] {
				t.Fatalf("seed %d after txn %d: ref %d = %p, model %p", seed, txn, i, got, m.refs[i])
			}
			if a, b := pairs[i].Get(nil); a != m.pairs[i][0] || b != m.pairs[i][1] {
				t.Fatalf("seed %d after txn %d: pair %d = (%d,%d), model %v", seed, txn, i, a, b, m.pairs[i])
			}
		}
	}
}

// TestWriteCapacityCountsEntries pins the capacity rule: the abort fires
// on the write that would create entry number WriteCapacity+1, and an
// overwrite of a cell already in the set — however often, whichever
// kind — never counts.
func TestWriteCapacityCountsEntries(t *testing.T) {
	t.Parallel()
	const (
		limit = 300 // well past signature saturation
		per   = limit / 4
	)
	tm := New(Config{WriteCapacity: limit})
	th := tm.NewThread()
	words := make([]Word, per+1)
	refs := make([]Ref[wsNode], per)
	rounds := make([]Word, per)
	sets := make([]Pair, per)
	n := &wsNode{}
	fill := func(tx *Tx, round uint64) {
		for i := 0; i < per; i++ {
			words[i].Set(tx, uint64(i))
			refs[i].Set(tx, n)
			rounds[i].Set(tx, round)
			sets[i].Set(tx, round, uint64(i))
		}
	}
	ok, ab := th.Atomic(PathFast, func(tx *Tx) {
		fill(tx, 0)
		for round := uint64(1); round <= 3; round++ {
			fill(tx, round) // overwrites only
		}
		if len(tx.writes) != limit {
			t.Fatalf("%d write entries, want %d", len(tx.writes), limit)
		}
	})
	if !ok {
		t.Fatalf("transaction at exactly WriteCapacity entries aborted: %+v", ab)
	}
	if got := rounds[0].Get(nil); got != 3 {
		t.Fatalf("overwritten word = %d, want 3", got)
	}
	if a, b := sets[per-1].Get(nil); a != 3 || b != per-1 {
		t.Fatalf("overwritten pair = (%d,%d), want (3,%d)", a, b, per-1)
	}
	reached := false
	ok, ab = th.Atomic(PathFast, func(tx *Tx) {
		fill(tx, 0)
		reached = true
		words[per].Set(tx, 1) // entry limit+1
	})
	if !reached {
		t.Fatalf("aborted before the set was full: %+v", ab)
	}
	if ok || ab.Cause != CauseCapacity {
		t.Fatalf("entry %d: ok=%v %+v, want a capacity abort", limit+1, ok, ab)
	}
}

// TestAbortDoesNotAllocate pins the abort path's allocation count: the
// unwind panics with a pointer to a payload the Thread owns, so an
// aborted attempt — explicit, capacity or conflict — costs no
// allocation (a boxed payload cost exactly one).
func TestAbortDoesNotAllocate(t *testing.T) {
	tm := New(Config{ReadCapacity: 4})
	th := tm.NewThread()
	cells := make([]Word, 8)
	var hot Word
	for _, tc := range []struct {
		cause AbortCause
		body  func(tx *Tx)
	}{
		{CauseExplicit, func(tx *Tx) { tx.Abort(1) }},
		{CauseCapacity, func(tx *Tx) {
			for i := range cells {
				cells[i].Get(tx)
			}
		}},
		{CauseConflict, func(tx *Tx) {
			hot.Get(tx)
			hot.Set(nil, 1) // a non-transactional write the snapshot predates
			hot.Get(tx)
		}},
	} {
		if ok, ab := th.Atomic(PathFast, tc.body); ok || ab.Cause != tc.cause {
			t.Fatalf("%s body: ok=%v %+v", tc.cause, ok, ab)
		}
		if avg := testing.AllocsPerRun(200, func() { th.Atomic(PathFast, tc.body) }); avg != 0 {
			t.Errorf("%s abort: %.0f allocs per attempt, want 0", tc.cause, avg)
		}
	}
}
