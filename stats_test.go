package htmtree

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"htmtree/internal/htm"
	"htmtree/internal/shard"
)

// statsLeaf is one counter of Stats: its field path and its index path.
type statsLeaf struct {
	name string
	idx  []int
}

// statsLeaves lists every uint64 field of Stats, nested structs walked.
func statsLeaves() []statsLeaf {
	var out []statsLeaf
	var walk func(t reflect.Type, name string, idx []int)
	walk = func(t reflect.Type, name string, idx []int) {
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				walk(f.Type, strings.TrimPrefix(name+"."+f.Name, "."), append(append([]int(nil), idx...), i))
			}
		case reflect.Uint64:
			out = append(out, statsLeaf{name, idx})
		}
	}
	walk(reflect.TypeOf(Stats{}), "", nil)
	return out
}

// TestEveryStatsCounterHasAFamily holds the families table to Stats:
// setting any one counter of a zero snapshot must make exactly one
// family emit a nonzero point, and every family must emit some counter.
// A counter added to Stats without its row fails here by name.
func TestEveryStatsCounterHasAFamily(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, f := range families {
		if seen[f.name] {
			t.Errorf("family %s has two rows", f.name)
		}
		seen[f.name] = true
	}
	hits := make([]int, len(families))
	leaves := statsLeaves()
	if len(leaves) < 30 {
		t.Fatalf("found %d counters in Stats; the walk is broken", len(leaves))
	}
	for _, l := range leaves {
		var s Stats
		reflect.ValueOf(&s).Elem().FieldByIndex(l.idx).SetUint(1)
		if path, ok := strings.CutPrefix(l.name, "TxAborts."); ok {
			// TxAborts is AbortCauses summed over causes: a snapshot
			// carries both.
			s.AbortCauses = map[string]uint64{strings.ToLower(path) + "/conflict": 1}
		}
		var by []string
		for i, f := range families {
			nonzero := false
			f.read(&s, func(n uint64, values ...string) {
				if len(values) != len(f.labels) {
					t.Errorf("%s emits %d label values for %d keys", f.name, len(values), len(f.labels))
				}
				nonzero = nonzero || n != 0
			})
			if nonzero {
				by = append(by, f.name)
				hits[i]++
			}
		}
		if len(by) != 1 {
			t.Errorf("Stats.%s is emitted by %d families %v, want exactly one", l.name, len(by), by)
		}
	}
	for i, f := range families {
		if hits[i] == 0 {
			t.Errorf("family %s emits no Stats counter", f.name)
		}
	}
}

// TestScrapeEqualsStats compares the two surfaces a tree's counters are
// read through: on a quiescent observed tree every family of the table,
// scraped and summed over the shard label, must equal what the same row
// reads from Tree.Stats(), point for point — and the scrape must hold no
// counter or gauge family the table does not list. The trees ran an
// abort storm first, so the values compared are not all zero: every path
// and (under TLE) the fallback lock carried load, and removed nodes sit
// in limbo and in the pools. The sharded (a,b)-tree answers atomic range
// and aggregate queries — its first cross-shard read escalating to the
// quiesce gates — and executes batches, so the range, quiesce and batch
// rows carry load too.
func TestScrapeEqualsStats(t *testing.T) {
	t.Parallel()
	const keySpan = 256
	storm := func(alg Algorithm) Config {
		return Config{
			Algorithm:    alg,
			Faults:       NewFaultPlan(3, FaultRule{Point: FaultTxAccess, Prob: 1.0 / 3}), // spurious
			ReadCapacity: 16,
		}
	}
	type tcase struct {
		name   string
		cfg    Config
		mk     func(Config) (*Tree, error)
		shards int
	}
	var cases []tcase
	for _, alg := range []Algorithm{ThreePath, TLE} {
		cases = append(cases,
			tcase{string(alg), storm(alg), NewBST, 1},
			tcase{string(alg), storm(alg), NewShardedBST, 8})
	}
	cases = append(cases, tcase{"abtree-atomic-batched", Config{
		AtomicRangeQueries: true,
		BatchMaxOps:        16,
		// The tree's first DefaultRQRetries transactional accesses abort
		// by conflict: every optimistic attempt of the first cross-shard
		// read fails, and it escalates.
		Faults: NewFaultPlan(5, FaultRule{Point: FaultTxAccess, Every: 1,
			Count: shard.DefaultRQRetries, Cause: uint8(htm.CauseConflict)}),
	}, NewShardedABTree, 8})
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/x%d", tc.name, tc.shards), func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.Observability = &ObsConfig{}
			cfg.Shards, cfg.ShardKeySpan = tc.shards, keySpan
			tree, err := tc.mk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			atomic := cfg.AtomicRangeQueries
			if atomic {
				tree.NewHandle().RangeQuery(1, keySpan+1, nil)
			}
			// Enough updates per inner handle on 8 shards that the pools
			// and reclamation bags publish their gauges at least once
			// (every 64 settles, every 32 retirements).
			churn(tree, 4, 1200, keySpan)
			if atomic {
				h, ah := tree.NewHandle(), tree.NewAsyncHandle()
				for k := uint64(1); k <= keySpan; k += 3 {
					ah.Insert(k, k)
					if _, err := h.RangeAgg(k, k+64); err != nil {
						t.Fatal(err)
					}
				}
				ah.Flush()
			}

			st := tree.Stats()
			snap := tree.Obs().Snapshot()
			rows := map[string]bool{"htmtree_uptime_seconds": true, "htmtree_recorder_threads": true}
			for _, f := range families {
				rows[f.name] = true
				want, got := map[string]uint64{}, map[string]uint64{}
				f.read(&st, func(n uint64, values ...string) { want[strings.Join(values, ",")] += n })
				points, ok := snap.Metrics[f.name]
				if !ok {
					t.Errorf("scrape has no %s family", f.name)
					continue
				}
				for _, p := range points {
					values := make([]string, len(f.labels))
					for i, k := range f.labels {
						values[i] = p.Labels[k]
					}
					got[strings.Join(values, ",")] += uint64(p.Value)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s scrapes %v, Stats has %v", f.name, got, want)
				}
			}
			for name := range snap.Metrics {
				if !rows[name] {
					t.Errorf("scrape has family %s, which is not a row of the table", name)
				}
			}

			wantAcq := uint64(0) // the lock-free fallback takes no lock
			if cfg.Algorithm == TLE {
				wantAcq = st.Ops.Fallback
			}
			if st.FallbackAcquisitions != wantAcq {
				t.Errorf("FallbackAcquisitions = %d, want %d", st.FallbackAcquisitions, wantAcq)
			}
			if rc := st.Reclaim; !atomic && rc.Limbo+rc.PooledLeaf+rc.PooledInner == 0 {
				t.Errorf("the churn left every reclamation gauge at zero: %+v", rc)
			}
			if !atomic && (st.Ops.Fast == 0 || st.Ops.Fallback == 0 || st.Policy.FreeRetries == 0) {
				t.Errorf("the storm left counters at zero: %+v %+v", st.Ops, st.Policy)
			}
			if atomic && (st.Range.Attempts == 0 || st.Range.Escalations == 0 || st.Range.Quiesces == 0 ||
				st.Batch.Groups == 0) {
				t.Errorf("range, quiesce or batch counters at zero: %+v %+v", st.Range, st.Batch)
			}
		})
	}
}

// churn runs a mixed workload — inserts, deletes, range queries of 16
// keys — over [1, span] from several goroutines.
func churn(tree *Tree, goroutines, opsPerG int, span uint64) {
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			var out []KV
			for i := 0; i < opsPerG; i++ {
				k := uint64((g*7919+i*31)%int(span)) + 1
				switch i % 4 {
				case 0, 1:
					h.Insert(k, k)
				case 2:
					h.Delete(k)
				case 3:
					out = h.RangeQuery(k, k+16, out[:0])
				}
			}
		}(g)
	}
	wg.Wait()
}
