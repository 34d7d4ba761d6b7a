package abtree

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// permModel is the order word as slices: the live slots in key order,
// then the free list, then the identity tail a tree with b < MaxB never
// touches.
type permModel struct {
	live, free []int
}

func (m permModel) word() uint64 {
	var perm uint64
	i := 0
	for _, s := range m.live {
		perm |= uint64(s) << (4 * i)
		i++
	}
	for _, s := range m.free {
		perm |= uint64(s) << (4 * i)
		i++
	}
	for ; i < MaxB; i++ {
		perm |= uint64(i) << (4 * i)
	}
	return perm
}

// modelOf splits a shuffled 0..b-1 into size live slots and a free list.
func modelOf(rng *rand.Rand, b, size int) permModel {
	p := rng.Perm(b)
	return permModel{live: p[:size:size], free: p[size:]}
}

func (m permModel) insert(pos int) (permModel, int) {
	slot := m.free[0]
	return permModel{live: slices.Insert(slices.Clone(m.live), pos, slot), free: slices.Clone(m.free[1:])}, slot
}

func (m permModel) delete(pos int) permModel {
	slot := m.live[pos]
	return permModel{live: slices.Delete(slices.Clone(m.live), pos, pos+1), free: append([]int{slot}, m.free...)}
}

// checkPerm asserts the order word's standing invariant for degree b.
func checkPerm(t *testing.T, perm uint64, b int, what string) {
	t.Helper()
	if err := checkOrd(perm, 0, b); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestPermAgainstModel checks permAt, permInsert and permDelete against
// the slice model for every b, every size and every position — size 15 ->
// 16 and 16 -> 15 included, where the mask shifts reach 64 bits — from
// several shuffled starting orders each.
func TestPermAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for b := 3; b <= MaxB; b++ {
		for size := 0; size <= b; size++ {
			for trial := 0; trial < 4; trial++ {
				m := modelOf(rng, b, size)
				perm := m.word()
				checkPerm(t, perm, b, "model word")
				for i, s := range append(slices.Clone(m.live), m.free...) {
					if got := permAt(perm, i); got != s {
						t.Fatalf("b=%d size=%d: permAt(%#x, %d) = %d, want %d", b, size, perm, i, got, s)
					}
				}
				for pos := 0; pos <= size && size < b; pos++ {
					want, wantSlot := m.insert(pos)
					got := permInsert(perm, pos, size)
					if slot := permAt(got, pos); got != want.word() || slot != wantSlot {
						t.Fatalf("b=%d: permInsert(%#x, pos %d, size %d) = %#x slot %d, want %#x slot %d",
							b, perm, pos, size, got, slot, want.word(), wantSlot)
					}
				}
				for pos := 0; pos < size; pos++ {
					want := m.delete(pos)
					if got := permDelete(perm, pos, size); got != want.word() {
						t.Fatalf("b=%d: permDelete(%#x, pos %d, size %d) = %#x, want %#x",
							b, perm, pos, size, got, want.word())
					}
				}
			}
		}
	}
}

// TestPermRandomWalk drives a leaf's worth of state — an order word and a
// slot array — through 1e5 seeded inserts and deletes spread over every
// b, the way the fast path does: an insert fills the slot permInsert
// names, a delete touches no slot. After every step the word must keep
// its invariant (first b nibbles a permutation of 0..b-1, so live and
// free ranks never share a slot; the rest untouched) and reading the
// slots through it must give the sorted model.
func TestPermRandomWalk(t *testing.T) {
	const steps = 100_000
	rng := rand.New(rand.NewSource(16))
	for b := 3; b <= MaxB; b++ {
		perm, size := permIdentity, 0
		var slots [MaxB]uint64
		var model []uint64
		for step := 0; step < steps/(MaxB-2); step++ {
			if size < b && (size == 0 || rng.Intn(2) == 0) {
				key := rng.Uint64()
				pos, found := slices.BinarySearch(model, key)
				if found {
					continue
				}
				perm = permInsert(perm, pos, size)
				slots[permAt(perm, pos)] = key
				model = slices.Insert(model, pos, key)
				size++
			} else {
				pos := rng.Intn(size)
				perm = permDelete(perm, pos, size)
				model = slices.Delete(model, pos, pos+1)
				size--
			}
			checkPerm(t, perm, b, "random walk")
			for i, want := range model {
				if got := slots[permAt(perm, i)]; got != want {
					t.Fatalf("b=%d step %d: rank %d reads key %d, want %d (perm %#x size %d)", b, step, i, got, want, perm, size)
				}
			}
		}
	}
}

// TestCheckInvariantsReadsTheOrderWord corrupts the order word of a
// quiescent leaf and expects CheckInvariants to say so in one line: a
// rank that names another rank's slot breaks the permutation, and a live
// rank swapped with a free one is a valid permutation that reads a stale
// slot.
func TestCheckInvariantsReadsTheOrderWord(t *testing.T) {
	tr := New(Config{})
	h := tr.newHandle()
	for k := uint64(10); k > 0; k-- { // descending: slot order is the reverse of key order
		h.Insert(k, k)
	}
	h.Delete(5) // one parked slot, holding key 5
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	leaf := tr.entry.children()[0].Get(nil)
	perm, size := leaf.ver.Get(nil, &leaf.ord)
	setNibble := func(i, slot int) uint64 {
		return perm&^(15<<(4*i)) | uint64(slot)<<(4*i)
	}
	for _, c := range []struct {
		name, want string
		perm       uint64
	}{
		{"duplicate slot", "leaf order word", setNibble(3, permAt(perm, 4))},
		{"rank 0 swapped with the parked slot", "leaf keys unsorted",
			setNibble(0, permAt(perm, int(size)))&^(15<<(4*size)) | uint64(permAt(perm, 0))<<(4*size)},
	} {
		leaf.ver.Set(nil, &leaf.ord, c.perm, size)
		err := tr.CheckInvariants(true)
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: CheckInvariants = %v, want one line containing %q", c.name, err, c.want)
		}
	}
	leaf.ver.Set(nil, &leaf.ord, perm, size)
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}
