package htmtree_test

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"htmtree"
	"htmtree/internal/htm"
)

func TestFacadeBothTreesAllAlgorithms(t *testing.T) {
	t.Parallel()
	type ctor struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}
	for _, c := range []ctor{{"bst", htmtree.NewBST}, {"abtree", htmtree.NewABTree}} {
		for _, alg := range htmtree.Algorithms() {
			c, alg := c, alg
			t.Run(c.name+"/"+string(alg), func(t *testing.T) {
				t.Parallel()
				tree, err := c.mk(htmtree.Config{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				h := tree.NewHandle()
				for k := uint64(1); k <= 100; k++ {
					if _, existed := h.Insert(k, k*3); existed {
						t.Fatalf("Insert(%d) reported existing", k)
					}
				}
				if v, ok := h.Search(50); !ok || v != 150 {
					t.Fatalf("Search(50) = %d,%v", v, ok)
				}
				out := h.RangeQuery(10, 20, nil)
				if len(out) != 10 || out[0].Key != 10 || out[9].Key != 19 {
					t.Fatalf("RangeQuery(10,20) = %v", out)
				}
				for k := uint64(1); k <= 100; k += 2 {
					if _, existed := h.Delete(k); !existed {
						t.Fatalf("Delete(%d) missed", k)
					}
				}
				if sum, count := tree.KeySum(); count != 50 {
					t.Fatalf("KeySum = %d,%d want 50 keys", sum, count)
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				st := tree.Stats()
				if st.Ops.Total() == 0 {
					t.Fatal("no operations recorded")
				}
			})
		}
	}
}

func TestFacadeShardedTrees(t *testing.T) {
	t.Parallel()
	type ctor struct {
		name string
		mk   func(htmtree.Config) (*htmtree.Tree, error)
	}
	for _, c := range []ctor{{"bst", htmtree.NewShardedBST}, {"abtree", htmtree.NewShardedABTree}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tree, err := c.mk(htmtree.Config{
				Algorithm:    htmtree.ThreePath,
				Shards:       4,
				ShardKeySpan: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := tree.NewHandle()
					for k := uint64(g); k < 1000; k += 4 {
						h.Insert(k+1, (k+1)*10)
					}
				}(g)
			}
			wg.Wait()
			h := tree.NewHandle()
			if v, ok := h.Search(500); !ok || v != 5000 {
				t.Fatalf("Search(500) = (%d,%v), want (5000,true)", v, ok)
			}
			// A range query spanning every shard boundary (shard width 250)
			// must come back complete and globally key-ordered.
			out := h.RangeQuery(1, 1001, nil)
			if len(out) != 1000 {
				t.Fatalf("full RangeQuery returned %d pairs, want 1000", len(out))
			}
			for i, kv := range out {
				if kv.Key != uint64(i+1) || kv.Val != uint64(i+1)*10 {
					t.Fatalf("RangeQuery[%d] = (%d,%d), want (%d,%d)",
						i, kv.Key, kv.Val, i+1, (i+1)*10)
				}
			}
			if sum, count := tree.KeySum(); count != 1000 || sum != 1000*1001/2 {
				t.Fatalf("KeySum = (%d,%d), want (%d,1000)", sum, count, 1000*1001/2)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if st := tree.Stats(); st.Ops.Total() == 0 {
				t.Fatal("sharded Stats recorded no operations")
			}
		})
	}
	// Config errors surface through the sharded constructors too.
	if _, err := htmtree.NewShardedBST(htmtree.Config{Algorithm: "bogus"}); err == nil {
		t.Fatal("NewShardedBST accepted an unknown algorithm")
	}
	if _, err := htmtree.NewShardedABTree(htmtree.Config{Shards: -3}); err == nil {
		t.Fatal("NewShardedABTree accepted a negative shard count")
	}
}

func TestFacadeRejectsBadConfig(t *testing.T) {
	t.Parallel()
	if _, err := htmtree.NewBST(htmtree.Config{Algorithm: "bogus"}); err == nil {
		t.Fatal("NewBST accepted an unknown algorithm")
	}
	if _, err := htmtree.NewABTree(htmtree.Config{A: 6, B: 7}); err == nil {
		t.Fatal("NewABTree accepted b < 2a-1")
	}
	for _, cfg := range []htmtree.Config{{B: 17}, {A: 8, B: 17}} {
		_, err := htmtree.NewABTree(cfg)
		if err == nil || !strings.Contains(err.Error(), "invalid degree bounds") ||
			!strings.Contains(err.Error(), "b=17") || !strings.Contains(err.Error(), "<=16") {
			t.Fatalf("NewABTree(%+v) = %v, want an invalid degree bounds error naming b=17 and the limit 16", cfg, err)
		}
	}
	if _, err := htmtree.NewShardedABTree(htmtree.Config{B: 17}); err == nil {
		t.Fatal("NewShardedABTree accepted b > 16")
	}
	if _, err := htmtree.NewABTree(htmtree.Config{A: 8, B: 16}); err != nil {
		t.Fatalf("NewABTree rejected a=8 b=16: %v", err)
	}
}

func TestFacadeConcurrentUse(t *testing.T) {
	t.Parallel()
	tree, err := htmtree.NewABTree(htmtree.Config{Algorithm: htmtree.ThreePath})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			for i := 0; i < 2000; i++ {
				k := uint64((g*2000+i)%500) + 1
				switch i % 3 {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Delete(k)
				case 2:
					h.Search(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.TxCommits.Fast == 0 {
		t.Fatal("no fast-path commits recorded")
	}
}

// TestTLELockedBodies: with every transactional access aborting for
// capacity, every TLE operation of both trees runs its Fast body under
// the lock with a nil tx — TLE's one locked body — and completes there.
// The key sums agree with the goroutines' tallies and the invariants
// hold.
func TestTLELockedBodies(t *testing.T) {
	t.Parallel()
	const goroutines, perG, span = 4, 1500, 256
	for name, mk := range map[string]func(htmtree.Config) (*htmtree.Tree, error){
		"bst": htmtree.NewBST, "abtree": htmtree.NewABTree,
	} {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tree, err := mk(htmtree.Config{Algorithm: htmtree.TLE, Faults: htmtree.NewFaultPlan(1,
				htmtree.FaultRule{Point: htmtree.FaultTxAccess, Every: 1, Cause: uint8(htm.CauseCapacity)})})
			if err != nil {
				t.Fatal(err)
			}
			sums := make([]int64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := tree.NewHandle()
					rng := rand.New(rand.NewSource(int64(g) + 11))
					for i := 0; i < perG; i++ {
						k := uint64(rng.Intn(span)) + 1
						switch i % 3 {
						case 0:
							if _, existed := h.Insert(k, k); !existed {
								sums[g] += int64(k)
							}
						case 1:
							if _, existed := h.Delete(k); existed {
								sums[g] -= int64(k)
							}
						case 2:
							if _, err := h.RangeAgg(k, k+32); err != nil {
								t.Error(err)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			var want int64
			for _, s := range sums {
				want += s
			}
			if sum, _ := tree.KeySum(); int64(sum) != want {
				t.Fatalf("KeySum = %d, threads tally %d", sum, want)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := tree.Stats()
			if st.Ops.Fast != 0 || st.Ops.Middle != 0 || st.FallbackAcquisitions != st.Ops.Fallback ||
				st.Ops.Fallback < goroutines*perG {
				t.Fatalf("ops %+v with %d lock acquisitions: want every operation under the lock",
					st.Ops, st.FallbackAcquisitions)
			}
		})
	}
}

// TestAsyncHandleQuickstart exercises the asynchronous API end to end
// on an unsharded tree: futures, the Wait-triggered flush, and a plain
// handle reading what the batch wrote.
func TestAsyncHandleQuickstart(t *testing.T) {
	t.Parallel()
	tree, err := htmtree.NewABTree(htmtree.Config{BatchMaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	ah := tree.NewAsyncHandle()
	fut := ah.Insert(42, 420)
	if st := tree.Stats().Batch; st.Flushes != 0 {
		t.Fatalf("Stats.Batch = %+v before any flush trigger, want no flush", st)
	}
	if v, ok := ah.Search(42).Wait(); !ok || v != 420 {
		t.Fatalf("async Search(42) = (%d,%v), want (420,true)", v, ok)
	}
	if _, ok := fut.Wait(); ok {
		t.Fatal("first insert reported an existing key")
	}
	got := tree.NewHandle().RangeQuery(0, 100, nil)
	if len(got) != 1 || got[0].Key != 42 || got[0].Val != 420 {
		t.Fatalf("RangeQuery after the flush = %v", got)
	}
	st := tree.Stats()
	if st.Batch.Flushes != 1 || st.Batch.BatchedOps != 2 {
		t.Fatalf("Stats.Batch = %+v, want 2 batched ops in one flush", st.Batch)
	}
}

// TestBatchAmortizationCounts asserts the acceptance criterion on a
// host-independent metric: at batch size 64 on an 8-shard tree with
// atomic range queries, group execution, which routes and admits once
// per group, must cut the routing and monitor-admission count at least
// 4x versus unbatched dispatch (which pays one of each per operation).
func TestBatchAmortizationCounts(t *testing.T) {
	t.Parallel()
	const (
		keySpan  = 1 << 16
		batches  = 50
		batchLen = 64
	)
	tree, err := htmtree.NewShardedABTree(htmtree.Config{
		Shards: 8, ShardKeySpan: keySpan, BatchMaxOps: batchLen, AtomicRangeQueries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ah := tree.NewAsyncHandle()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < batches*batchLen; i++ {
		k := uint64(rng.Intn(keySpan)) + 1
		if i%2 == 0 {
			ah.Insert(k, k)
		} else {
			ah.Delete(k)
		}
	}
	ah.Flush()
	st := tree.Stats().Batch
	if st.GroupOps != batches*batchLen {
		t.Fatalf("GroupOps = %d, want %d", st.GroupOps, batches*batchLen)
	}
	if st.Groups == 0 {
		t.Fatalf("amortization counters empty: %+v", st)
	}
	if ratio := float64(st.GroupOps) / float64(st.Groups); ratio < 4 {
		t.Fatalf("routing and admission amortized only %.2fx (unbatched pays %d of each, batched paid %d)",
			ratio, st.GroupOps, st.Groups)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConstructorsRejectNegativeKnobs: only zero selects a default, so a
// negative capacity — which would build a tree that silently never
// commits a transaction — or batch size is a constructor error naming
// the field, on every constructor.
func TestConstructorsRejectNegativeKnobs(t *testing.T) {
	t.Parallel()
	ctors := map[string]func(htmtree.Config) (*htmtree.Tree, error){
		"NewBST": htmtree.NewBST, "NewABTree": htmtree.NewABTree,
		"NewShardedBST": htmtree.NewShardedBST, "NewShardedABTree": htmtree.NewShardedABTree,
	}
	for field, cfg := range map[string]htmtree.Config{
		"ReadCapacity":  {ReadCapacity: -1},
		"WriteCapacity": {WriteCapacity: -1},
		"BatchMaxOps":   {BatchMaxOps: -1},
	} {
		for name, mk := range ctors {
			tree, err := mk(cfg)
			if err == nil || tree != nil || !strings.Contains(err.Error(), "Config."+field+" = -") {
				t.Errorf("%s(%s < 0) = %v, %v; want a nil tree and an error naming Config.%s and its value",
					name, field, tree, err, field)
			}
		}
	}
}

// evidence is one thing that tells a knob apart from its default: a file
// in the repository and the names in it that do — test or benchmark
// functions in a Go file, workload or metric names in BENCHMARK.json.
type evidence struct {
	file  string
	names []string
}

// configVerdicts is the knob audit (ROADMAP item C): for every field of
// Config and ObsConfig, what would notice if the field were ignored — a
// BENCHMARK.json workload or ladder rung that sets it, a bench_test.go
// benchmark that sweeps it, or a committed test that fails without it.
// A field with no entry fails TestConfigFieldsHaveVerdicts by name, so a
// new knob arrives with its evidence or not at all.
var configVerdicts = map[string][]evidence{
	"Config.Algorithm": {{"bench_test.go", []string{"BenchmarkFig14BSTLight", "BenchmarkFig14ABHeavy"}}},
	"Config.ReadCapacity": {{"internal/abtree/footprint_test.go", []string{"TestFastPathFootprint"}},
		{"internal/bst/footprint_test.go", []string{"TestTransactionalFootprint"}}},
	"Config.WriteCapacity": {{"internal/abtree/footprint_test.go", []string{"TestFastPathFootprint"}},
		{"internal/bst/footprint_test.go", []string{"TestTransactionalFootprint"}}},
	"Config.Faults": {{"internal/modelcheck/chaos_test.go", []string{"TestChaosOwnerDeathDifferential",
		"TestChaosQuiesceStall", "TestChaosEBRPinStall", "TestChaosFallbackRangeAgg", "TestChaosBatchFlushDelay"}}},
	"Config.A":            {{"htmtree_test.go", []string{"TestFacadeRejectsBadConfig"}}},
	"Config.B":            {{"htmtree_test.go", []string{"TestFacadeRejectsBadConfig"}}},
	"Config.Shards":       {{"BENCHMARK.json", []string{"bst-shard-scan", "shard.route_ns"}}},
	"Config.ShardKeySpan": {{"BENCHMARK.json", []string{"bst-shard-scan", "shard.route_ns"}}},
	"Config.AtomicRangeQueries": {{"BENCHMARK.json", []string{"bst-shard-scan", "shard.atomic_ns"}},
		{"internal/modelcheck/atomic_test.go", []string{"TestCrossShardRangeQueryAtomicity"}}},
	"Config.BatchMaxOps": {{"BENCHMARK.json", []string{"batch.op_ns"}},
		{"htmtree_test.go", []string{"TestAsyncHandleQuickstart"}}},
	"Config.Observability": {{"BENCHMARK.json", []string{"obs.op_ns"}}},

	"ObsConfig.LatencySample": {{"internal/obs/obs_test.go", []string{"TestDisabledCaptures"}},
		{"alloc_gate_test.go", []string{"TestAllocGateLatencyCapture"}}},
	"ObsConfig.EventSample": {{"internal/obs/obs_test.go", []string{"TestEventSamplingAndWrap", "TestDisabledCaptures"}}},
	"ObsConfig.EventBuffer": {{"internal/obs/obs_test.go", []string{"TestEventSamplingAndWrap", "TestDisabledCaptures"}}},
}

// TestConfigFieldsHaveVerdicts holds the audit to the code: the table
// has an entry for exactly the fields Config and ObsConfig have, and
// every piece of evidence named still exists under its name.
func TestConfigFieldsHaveVerdicts(t *testing.T) {
	t.Parallel()
	fields := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(htmtree.Config{}), reflect.TypeOf(htmtree.ObsConfig{})} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			fields[name] = true
			if len(configVerdicts[name]) == 0 {
				t.Errorf("%s has no verdict: name the BENCHMARK.json workload or rung, the bench_test.go benchmark or the test that tells it apart from its default", name)
			}
		}
	}
	files := map[string]string{}
	for name, evs := range configVerdicts {
		if !fields[name] {
			t.Errorf("verdict for %s, which is not a field", name)
		}
		for _, ev := range evs {
			src, ok := files[ev.file]
			if !ok {
				b, err := os.ReadFile(ev.file)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				src = string(b)
				files[ev.file] = src
			}
			for _, n := range ev.names {
				want := n
				switch {
				case strings.HasSuffix(ev.file, ".go"):
					want = "func " + n + "("
				case strings.HasSuffix(ev.file, ".json"):
					want = `"` + n + `"`
				}
				if !strings.Contains(src, want) {
					t.Errorf("%s: %s no longer has %s", name, ev.file, n)
				}
			}
		}
	}
}

// facadeCallers is the facade's method audit, the twin of
// configVerdicts: for every exported method of Tree, Handle,
// AsyncHandle and PointFuture, a non-test file under bench/ or
// examples/ that calls it — evidence here is a file and the methods it
// calls. A method with no entry fails TestFacadeMethodsHaveCallers by
// name, so a new method arrives with a caller or not at all.
var facadeCallers = map[string][]evidence{
	"Tree": {{"examples/quickstart/main.go", []string{"NewHandle", "KeySum", "CheckInvariants", "Stats"}},
		{"bench/layers.go", []string{"NewAsyncHandle"}},
		{"examples/observed/main.go", []string{"Obs"}}},
	"Handle": {{"examples/quickstart/main.go", []string{"Insert", "Delete", "Search", "RangeQuery"}},
		{"examples/sharded/main.go", []string{"RangeAgg"}}},
	"AsyncHandle": {{"bench/layers.go", []string{"Insert", "Delete", "Search", "Flush"}}},
	"PointFuture": {{"bench/layers.go", []string{"Wait"}}},
}

// facadeMethods lists the exported methods of the facade's types, keyed
// by type name.
func facadeMethods() map[string][]string {
	methods := map[string][]string{}
	for _, typ := range []reflect.Type{reflect.TypeOf(&htmtree.Tree{}), reflect.TypeOf(&htmtree.Handle{}),
		reflect.TypeOf(&htmtree.AsyncHandle{}), reflect.TypeOf(htmtree.PointFuture{})} {
		name := typ.Name()
		if typ.Kind() == reflect.Pointer {
			name = typ.Elem().Name()
		}
		for i := 0; i < typ.NumMethod(); i++ {
			methods[name] = append(methods[name], typ.Method(i).Name)
		}
	}
	return methods
}

// facadeCallerErrors checks table against methods: every method has an
// entry and every entry is a method, and each entry's file is a non-test
// Go file under bench/ or examples/ that contains ".Method(".
func facadeCallerErrors(methods map[string][]string, table map[string][]evidence) []string {
	var errs []string
	for typ, names := range methods {
		for _, m := range names {
			found := false
			for _, ev := range table[typ] {
				found = found || slices.Contains(ev.names, m)
			}
			if !found {
				errs = append(errs, fmt.Sprintf("%s.%s has no caller: name the bench/ or examples/ file that calls it, or delete it", typ, m))
			}
		}
	}
	for typ, evs := range table {
		for _, ev := range evs {
			if !(strings.HasPrefix(ev.file, "bench/") || strings.HasPrefix(ev.file, "examples/")) ||
				!strings.HasSuffix(ev.file, ".go") || strings.HasSuffix(ev.file, "_test.go") {
				errs = append(errs, fmt.Sprintf("%s: %s is not a non-test Go file under bench/ or examples/", typ, ev.file))
				continue
			}
			src, err := os.ReadFile(ev.file)
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", typ, err))
				continue
			}
			for _, m := range ev.names {
				if !slices.Contains(methods[typ], m) {
					errs = append(errs, fmt.Sprintf("caller of %s.%s, which is not a method", typ, m))
				}
				if !strings.Contains(string(src), "."+m+"(") {
					errs = append(errs, fmt.Sprintf("%s.%s: %s does not call it", typ, m, ev.file))
				}
			}
		}
	}
	return errs
}

// TestFacadeMethodsHaveCallers holds the facade to what its callers
// call: facadeCallers has an entry for exactly the facade's methods, and
// every file it names still calls them. As negative controls, a method
// without an entry and an entry whose file lacks the call must each be
// reported.
func TestFacadeMethodsHaveCallers(t *testing.T) {
	t.Parallel()
	methods := facadeMethods()
	for _, err := range facadeCallerErrors(methods, facadeCallers) {
		t.Error(err)
	}

	withExtra := maps.Clone(methods)
	withExtra["Tree"] = append(slices.Clone(methods["Tree"]), "Frobnicate")
	if errs := facadeCallerErrors(withExtra, facadeCallers); len(errs) != 1 || !strings.Contains(errs[0], "Tree.Frobnicate has no caller") {
		t.Errorf("a method without an entry reported %q, want one no-caller error", errs)
	}

	wrongFile := maps.Clone(facadeCallers)
	wrongFile["AsyncHandle"] = []evidence{{"bench/layers.go", []string{"Insert", "Delete", "Search"}},
		{"examples/quickstart/main.go", []string{"Flush"}}}
	if errs := facadeCallerErrors(methods, wrongFile); len(errs) != 1 || !strings.Contains(errs[0], "does not call it") {
		t.Errorf("an entry whose file lacks the call reported %q, want one does-not-call error", errs)
	}
}
