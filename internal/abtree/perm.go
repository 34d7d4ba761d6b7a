package abtree

// The order word of a leaf (the permuter of Masstree's leaves). A leaf's
// slots are unsorted storage; perm holds sixteen 4-bit slot numbers, one
// per rank: nibble i (bits 4i..4i+3) names the slot of the i-th smallest
// key for i < size, and the nibbles from size up are the free list, first
// free slot first. An insert moves the nibble at rank size down to the
// key's rank, a delete moves the key's nibble up to rank size-1, and
// nothing else in the leaf is touched: the keys between only change rank,
// which shifts their nibbles inside the one word.
//
// The first b nibbles are always a permutation of 0..b-1. A tree with
// b < MaxB never reads or moves the nibbles from b up.

// MaxB is the largest degree bound b: a slot number is one nibble of the
// 64-bit order word.
const MaxB = 16

// permIdentity is a fresh leaf's order: rank i is slot i.
const permIdentity uint64 = 0xfedcba9876543210

// permAt returns the slot at rank i. The result is masked to a nibble, so
// indexing a [MaxB] array with it needs no bounds check.
func permAt(perm uint64, i int) int {
	return int(perm >> (uint(i) * 4) & 15)
}

// permInsert makes room at rank pos in a leaf of size entries (size <
// MaxB): the first free slot takes that rank — the caller fills
// slots[permAt(new, pos)] — and the ranks pos..size-1 move up by one.
func permInsert(perm uint64, pos, size int) uint64 {
	slot := uint64(permAt(perm, size))
	below := uint64(1)<<(uint(pos)*4) - 1       // ranks < pos stay
	upto := uint64(1)<<(uint(size)*4) - 1       // ranks < size
	above := ^(uint64(1)<<(uint(size+1)*4) - 1) // ranks > size stay (none at size 15: the shift count is 64)
	moved := perm & upto &^ below
	return perm&below | slot<<(uint(pos)*4) | moved<<4 | perm&above
}

// permDelete removes rank pos from a leaf of size entries (pos < size <=
// MaxB): the ranks pos+1..size-1 move down by one and the freed slot is
// parked at rank size-1, the head of the free list at the new size.
func permDelete(perm uint64, pos, size int) uint64 {
	slot := uint64(permAt(perm, pos))
	below := uint64(1)<<(uint(pos)*4) - 1     // ranks < pos stay
	through := uint64(1)<<(uint(pos+1)*4) - 1 // ranks <= pos
	upto := uint64(1)<<(uint(size)*4) - 1     // ranks < size (all of them at size 16: the shift count is 64)
	moved := perm & upto &^ through
	return perm&below | moved>>4 | slot<<(uint(size-1)*4) | perm&^upto
}
