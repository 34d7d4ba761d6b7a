package main

import "htmtree"

// workers is the number of load-generating goroutines, in one process.
// It equals the vCPU count of the host the bounds were derived on and is
// never raised: more workers than CPUs measures the Go scheduler.
const workers = 2

// role is what one worker does in a workload slice: a point-operation
// mix, or (scanLen > 0) range queries of the paper's heavy-workload
// extent distribution.
type role struct {
	mix     mix
	scanLen uint64
}

// workload is one closed-loop traffic mix against one tree built through
// the public htmtree API. Keys are uniform in [1, keys]; the tree is
// prefilled to half of them.
type workload struct {
	name, why string
	keys      uint64
	build     func() (*htmtree.Tree, error)
	roles     [workers]role
}

func newABTree() (*htmtree.Tree, error) { return htmtree.NewABTree(htmtree.Config{}) }

func newShardedBST(keys uint64) func() (*htmtree.Tree, error) {
	return func() (*htmtree.Tree, error) {
		return htmtree.NewShardedBST(htmtree.Config{
			Shards:             8,
			ShardKeySpan:       keys + 1,
			AtomicRangeQueries: true,
		})
	}
}

// workloads is the benchmark's traffic. BENCHMARK.json repeats the names
// and reasons; the self-test keeps the two in step.
var workloads = []workload{
	{
		name: "ab-update",
		why:  "paper's light workload: 2 updaters, 50/50 insert/delete, unsharded (a,b)-tree; write-set commit, fast path, retire-reuse",
		keys: 100_000, build: newABTree,
		roles: [workers]role{{mix: mixUpdate}, {mix: mixUpdate}},
	},
	{
		name: "ab-lookup",
		why:  "same tree, 90% search: read-only transactions bypass write log, commit locking and retire, so write-path gains must not show here",
		keys: 100_000, build: newABTree,
		roles: [workers]role{{mix: mixLookup}, {mix: mixLookup}},
	},
	{
		name: "ab-scan",
		why:  "paper's heavy workload: 1 updater + 1 range-query worker (extent up to 1e4); only here do middle and fallback paths carry load",
		keys: 100_000, build: newABTree,
		roles: [workers]role{{mix: mixUpdate}, {scanLen: 10_000}},
	},
	{
		name: "bst-shard-scan",
		why:  "8-shard BST with atomic cross-shard scans: the only workload running shard routing, the update monitor and the bst bodies",
		keys: 10_000, build: newShardedBST(10_000),
		roles: [workers]role{{mix: mixUpdate}, {scanLen: 1_000}},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
