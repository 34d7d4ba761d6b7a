package shard

import (
	"testing"
	"time"

	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
)

// monitoredBST builds a monitored sharded BST: Atomic, plus whatever cfg
// sets (a Router, Rebalance).
func monitoredBST(t *testing.T, cfg Config, alg engine.Algorithm) *Dict {
	t.Helper()
	cfg.Atomic = true
	cfg.New = func(_ int, mon *engine.UpdateMonitor) dict.Dict {
		return bst.New(bst.Config{Algorithm: alg, Engine: engine.Config{Monitor: mon}})
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestUpdateWaitsAtHeldGate verifies the one admission point: on every
// kind of monitored dictionary an update through a shard handle — a point
// operation or a batch group — waits while the owning shard's quiesce
// gate is held, leaves a sample taken under the gate valid, and proceeds
// and publishes its commit on release.
func TestUpdateWaitsAtHeldGate(t *testing.T) {
	t.Parallel()
	hash, err := NewHashRouter(4)
	if err != nil {
		t.Fatal(err)
	}
	const key = 7
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"static", Config{Shards: 4, KeySpan: 1 << 10}},
		{"hash", Config{Shards: 4, Router: hash}},
		{"rebalancing", Config{Shards: 4, KeySpan: 1 << 10, Rebalance: &RebalanceConfig{}}},
	} {
		for _, via := range []struct {
			name   string
			update func(h dict.Handle)
		}{
			{"point", func(h dict.Handle) { h.Insert(key, 1) }},
			{"group", func(h dict.Handle) {
				h.(dict.GroupExecutor).ExecGroup([]dict.BatchOp{{Kind: dict.OpInsert, Key: key, Val: 1}})
			}},
		} {
			tc, via := tc, via
			t.Run(tc.name+"/"+via.name, func(t *testing.T) {
				t.Parallel()
				d := monitoredBST(t, tc.cfg, engine.AlgThreePath)
				h := d.NewHandle()
				mon := d.mons[d.ShardFor(key)]

				release := mon.Quiesce()
				s, ok := mon.Sample()
				if !ok || !mon.Validate(s) {
					t.Fatal("quiesced monitor not stable")
				}
				done := make(chan struct{})
				go func() {
					via.update(h)
					close(done)
				}()
				select {
				case <-done:
					t.Fatal("update ran through a held quiesce gate")
				case <-time.After(20 * time.Millisecond):
				}
				if !mon.Validate(s) {
					t.Fatal("sample invalidated while the gate was held")
				}
				release()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("update never proceeded after gate release")
				}
				if mon.Validate(s) {
					t.Fatal("released update did not invalidate the sample")
				}
				if v, ok := h.Search(key); !ok || v != 1 {
					t.Fatalf("Search(%d) = (%d,%v) after the released update", key, v, ok)
				}
			})
		}
	}
}

// TestGatedUpdaterPinsNoEpoch verifies that an updater waiting at a held
// gate waits outside the shard's reclamation domain. The test plays a
// migration: it holds the shard's gate itself and, like migrate, updates
// the shard through an inner handle, whose retirements are what advance
// the epoch. A backlog another handle retired before the gate closed must
// still drain into that handle's pool as it keeps searching. An updater
// parked inside its reclamation bracket would pin the epoch it announced,
// and the backlog — and everything the gate holder retires — would stay
// in limbo for as long as the gate is held.
func TestGatedUpdaterPinsNoEpoch(t *testing.T) {
	t.Parallel()
	// non-htm: every removed node waits out a grace period, leaves too.
	d := monitoredBST(t, Config{Shards: 1, KeySpan: 1 << 20}, engine.AlgNonHTM)
	a := d.NewHandle()

	// Build a's backlog behind a reader that sits in its bracket, then
	// let the reader go: ~3 nodes per delete, none of which could drain.
	reader := d.shards[0].NewHandle().(dict.PinnedReader)
	reader.PinEnter()
	const backlog = 400
	for k := uint64(1); k <= backlog; k++ {
		a.Insert(k, k)
	}
	for k := uint64(1); k <= backlog; k++ {
		a.Delete(k)
	}
	reader.PinExit()
	before := d.OpStats().Reclaim
	if before.Limbo < backlog {
		t.Fatalf("backlog in limbo = %d, want >= %d", before.Limbo, backlog)
	}

	release := d.mons[0].Quiesce()
	parked := make(chan struct{})
	go func() {
		d.NewHandle().Insert(1<<19, 1)
		close(parked)
	}()
	select {
	case <-parked:
		t.Fatal("update ran through a held quiesce gate")
	case <-time.After(20 * time.Millisecond):
	}

	mig := d.shards[0].NewHandle()
	for i := uint64(0); i < 4*backlog; i++ {
		k := 1<<18 + i%64
		mig.Insert(k, i)
		mig.Delete(k)
		a.Search(k)
	}
	held := d.OpStats().Reclaim
	release()
	<-parked

	// What is left is what the gate holder retired in the last epochs.
	if held.Limbo > before.Limbo/4 {
		t.Errorf("limbo with an updater parked at the gate: %d before, %d after %d more retiring updates; want it drained",
			before.Limbo, held.Limbo, 4*backlog)
	}
	// a publishes its pool's lengths as it settles updates.
	for i := uint64(0); i < 64; i++ {
		a.Insert(1<<17+i, i)
	}
	if after := d.OpStats().Reclaim; after.PooledGrace <= before.PooledGrace {
		t.Errorf("PooledGrace %d before, %d after: the backlog did not reach the pool", before.PooledGrace, after.PooledGrace)
	}
}
