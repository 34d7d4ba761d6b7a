package shard

import (
	"sort"
	"testing"

	"htmtree/internal/dict"
)

// sortedOps builds a stable-key-sorted batch the way the batching
// layer would, from (kind, key, val) triples in enqueue order.
func sortedOps(tr []dict.BatchOp) []dict.BatchOp {
	ops := append([]dict.BatchOp(nil), tr...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	return ops
}

// TestExecGroupMatchesPerOpDispatch runs the same operation stream
// through ExecGroup and through plain per-op dispatch on a twin
// dictionary and requires identical results and final content.
func TestExecGroupMatchesPerOpDispatch(t *testing.T) {
	t.Parallel()
	const span = 1 << 10
	batched := newShardedBST(t, 8, span)
	plain := newShardedBST(t, 8, span)
	bh := batched.NewHandle().(*handle)
	ph := plain.NewHandle()

	var stream []dict.BatchOp
	for i := 0; i < 500; i++ {
		k := uint64((i*293)%span) + 1
		switch i % 5 {
		case 0, 1:
			stream = append(stream, dict.BatchOp{Kind: dict.OpInsert, Key: k, Val: k * 3})
		case 2:
			stream = append(stream, dict.BatchOp{Kind: dict.OpDelete, Key: k})
		default:
			stream = append(stream, dict.BatchOp{Kind: dict.OpSearch, Key: k})
		}
	}
	for base := 0; base < len(stream); base += 64 {
		end := base + 64
		if end > len(stream) {
			end = len(stream)
		}
		group := sortedOps(stream[base:end])
		bh.ExecGroup(group)
		// The plain twin executes the same sorted order, so per-op
		// results must agree exactly.
		for i := range group {
			var want dict.BatchOp
			want = group[i]
			want.Out, want.OutOK = 0, false
			want.Exec(ph)
			if want.Out != group[i].Out || want.OutOK != group[i].OutOK {
				t.Fatalf("op %d (%+v): group result (%d,%v), per-op (%d,%v)",
					base+i, group[i], group[i].Out, group[i].OutOK, want.Out, want.OutOK)
			}
		}
	}
	bs, bc := batched.KeySum()
	ps, pc := plain.KeySum()
	if bs != ps || bc != pc {
		t.Fatalf("KeySum diverged: batched (%d,%d), plain (%d,%d)", bs, bc, ps, pc)
	}
	if err := batched.CheckPartition(); err != nil {
		t.Fatal(err)
	}
	st := batched.BatchCounters().Snapshot()
	if st.GroupOps != 500 || st.Groups == 0 {
		t.Fatalf("batch counters = %+v, want 500 ops in >0 groups", st)
	}
}
