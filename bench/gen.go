package main

import "math/bits"

// The load generator. It is the benchmark's own (not internal/workload,
// not internal/xrand): the instrument must not move when the system
// under test does. Every stream is a pure function of (seed, stream
// id), so the trees only ever see keys derived from the --seed
// argument.

// rng is a splitmix64 generator.
type rng struct{ x uint64 }

const golden = 0x9e3779b97f4a7c15

// newRNG returns the generator for stream id of seed. The seed is
// scrambled first so that neighbouring seeds (seed+round) give
// unrelated streams.
func newRNG(seed, id uint64) rng {
	r := rng{x: seed}
	r.x = r.next() + id*golden
	return r
}

func (r *rng) next() uint64 {
	r.x += golden
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opKind is a point operation.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opSearch
)

// mix is a point-operation mix in percent; the rest are searches.
type mix struct{ insert, delete uint64 }

var (
	mixUpdate = mix{50, 50}
	mixLookup = mix{5, 5}
)

// opGen draws point operations with uniform keys in [1, keys].
type opGen struct {
	r    rng
	keys uint64
	mix  mix
}

// next draws one operation from one 64-bit value: the key from the high
// bits (multiply-shift, no modulo bias worth the name at keys <= 2^32)
// and the kind from the low 16 bits, which the key does not depend on.
func (g *opGen) next() (opKind, uint64) {
	v := g.r.next()
	hi, _ := bits.Mul64(v, g.keys)
	pct := (v & 0xffff) * 100 >> 16
	switch {
	case pct < g.mix.insert:
		return opInsert, hi + 1
	case pct < g.mix.insert+g.mix.delete:
		return opDelete, hi + 1
	}
	return opSearch, hi + 1
}

// scanGen draws range queries [lo, lo+len) with lo uniform in [1, keys]
// and len = floor(x*x*maxLen)+1 for uniform x in [0,1) — the paper's
// heavy-workload extent distribution.
type scanGen struct {
	r      rng
	keys   uint64
	maxLen uint64
}

func (g *scanGen) next() (lo, hi uint64) {
	l, _ := bits.Mul64(g.r.next(), g.keys)
	x := float64(g.r.next()>>11) / (1 << 53)
	return l + 1, l + 1 + uint64(x*x*float64(g.maxLen)) + 1
}
