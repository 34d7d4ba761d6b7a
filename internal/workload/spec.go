package workload

import (
	"fmt"

	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/shard"
)

// Spec names one dictionary configuration — a structure, a template
// algorithm and a shard count — so the shard-scaling benchmarks can
// enumerate configurations uniformly.
type Spec struct {
	// Structure is "bst" or "abtree".
	Structure string
	// Algorithm selects the template implementation.
	Algorithm engine.Algorithm
	// Shards partitions the key space across that many independent trees
	// (0 or 1 means unsharded).
	Shards int
	// KeySpan balances the partition over [0, KeySpan); set it to the
	// trial's key range. Ignored when unsharded; defaults to the full
	// key space.
	KeySpan uint64
}

// Name returns a compact label, e.g. "abtree/3-path/x8". An explicit
// Shards of 1 is labeled "/x1" so a shard sweep's baseline stays
// distinguishable from an unsharded (Shards == 0) series.
func (s Spec) Name() string {
	n := s.Structure + "/" + s.Algorithm.String()
	if s.Shards >= 1 {
		n += fmt.Sprintf("/x%d", s.Shards)
	}
	return n
}

// New constructs a fresh dictionary instance described by the spec.
// It panics on an unknown structure name (specs are authored by
// benchmarks, not end users).
func (s Spec) New() dict.Dict {
	mk := func(int) dict.Dict {
		switch s.Structure {
		case "bst":
			return bst.New(bst.Config{Algorithm: s.Algorithm})
		case "abtree":
			return abtree.New(abtree.Config{Algorithm: s.Algorithm})
		default:
			panic(fmt.Sprintf("workload: unknown structure %q", s.Structure))
		}
	}
	if s.Shards <= 1 {
		return mk(0)
	}
	d, err := shard.New(shard.Config{
		Shards:  s.Shards,
		KeySpan: s.KeySpan,
		New:     mk,
	})
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err)) // only reachable via an invalid Spec
	}
	return d
}
