// Package workload implements the microbenchmark methodology of Section
// 7.1 of Brown's paper: prefilled trees, light workloads (n update
// threads doing 50% inserts / 50% deletes on uniform keys) and heavy
// workloads (n-1 update threads plus one thread performing range queries
// whose lengths follow the ⌊x²·S⌋+1 distribution), timed trials
// measuring completed operations per second, and per-thread key-sum
// checksums validating every trial. Its one consumer is bench_test.go,
// which renders each of the paper's figures as a Go benchmark.
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/xrand"
)

// Kind selects the workload of Section 7.1.
type Kind uint8

// Workloads.
const (
	Light Kind = iota + 1 // n update threads
	Heavy                 // n-1 update threads + 1 range-query thread
)

// String returns the paper's name for the workload.
func (k Kind) String() string {
	switch k {
	case Light:
		return "light"
	case Heavy:
		return "heavy"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config describes one trial.
type Config struct {
	// Threads is the total number of worker threads n.
	Threads int
	// Duration is the measurement window (paper: one second per trial).
	Duration time.Duration
	// KeyRange is K: updates draw keys uniformly from [1, K].
	KeyRange uint64
	// RQSizeMax is S: range-query lengths are ⌊x²·S⌋+1 for uniform x.
	RQSizeMax uint64
	// Kind selects light or heavy.
	Kind Kind
	// Seed makes trials deterministic.
	Seed uint64
	// SkipPrefill leaves the structure empty at trial start.
	SkipPrefill bool
}

// Result reports one trial.
type Result struct {
	// Ops is the number of operations completed in the window.
	Ops uint64
	// UpdateOps and RQOps split Ops by operation class.
	UpdateOps, RQOps uint64
	// Throughput is Ops per second.
	Throughput float64
	// PathStats counts operation completions per execution path, and
	// transaction commits and aborts per path and cause, over the whole
	// run (including prefill).
	PathStats engine.OpStats
	// KeySumOK reports whether the Section 7.1 checksum validated.
	KeySumOK bool
}

// delta accumulates one worker thread's contribution to a trial, padded
// so the hot counters of adjacent threads do not share a cache line.
type delta struct {
	ops, updates, rqs uint64
	sum               int64
	count             int64
	_                 [24]byte
}

// Prefill inserts each key of [1, KeyRange] independently with
// probability 1/2 — the stationary distribution of the paper's 50/50
// update prefill — in a shuffled order (sorted insertion would build a
// degenerate, path-shaped BST; the paper's random-key prefill yields
// logarithmic depth with high probability). It returns the sum and
// count of inserted keys.
func Prefill(d dict.Dict, cfg Config) (sum, count uint64) {
	workers := cfg.Threads
	if workers < 1 {
		workers = 1
	}
	if workers > 8 {
		workers = 8
	}
	// Select the random half, then shuffle the insertion order.
	rng := xrand.New(cfg.Seed^0xda7a5e7, 0)
	keys := make([]uint64, 0, cfg.KeyRange/2+1)
	for k := uint64(1); k <= cfg.KeyRange; k++ {
		if rng.Next()&1 == 0 {
			keys = append(keys, k)
		}
	}
	for i := len(keys) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		keys[i], keys[j] = keys[j], keys[i]
	}

	sums := make([]uint64, workers)
	counts := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.NewHandle()
			for i := w; i < len(keys); i += workers {
				k := keys[i]
				if _, existed := h.Insert(k, k); !existed {
					sums[w] += k
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		sum += sums[w]
		count += counts[w]
	}
	return sum, count
}

// RQLen draws a range-query length from the paper's ⌊x²·S⌋+1
// distribution: many small queries, a few very large ones.
func RQLen(rng *xrand.State, s uint64) uint64 {
	x := rng.Float64()
	return uint64(x*x*float64(s)) + 1
}

// Run executes one trial: prefill, timed measurement, key-sum
// validation.
func Run(d dict.Dict, cfg Config) Result {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.KeyRange == 0 {
		cfg.KeyRange = 10000
	}
	if cfg.RQSizeMax == 0 {
		cfg.RQSizeMax = 1000
	}
	if cfg.Kind == 0 {
		cfg.Kind = Light
	}

	var baseSum, baseCount uint64
	if !cfg.SkipPrefill {
		baseSum, baseCount = Prefill(d, cfg)
	}

	var stop atomic.Bool
	deltas := make([]delta, cfg.Threads)
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	start := make(chan struct{})

	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			h := d.NewHandle()
			rng := xrand.New(cfg.Seed, uint64(i)+1)
			isRQ := cfg.Kind == Heavy && i == cfg.Threads-1
			var out []dict.KV
			ready.Done()
			<-start
			st := &deltas[i]
			for !stop.Load() {
				if isRQ {
					lo := rng.Uint64n(cfg.KeyRange) + 1
					out = h.RangeQuery(lo, lo+RQLen(rng, cfg.RQSizeMax), out[:0])
					st.rqs++
				} else {
					k := rng.Uint64n(cfg.KeyRange) + 1
					if rng.Next()&1 == 0 {
						if _, existed := h.Insert(k, k); !existed {
							st.sum += int64(k)
							st.count++
						}
					} else {
						if _, existed := h.Delete(k); existed {
							st.sum -= int64(k)
							st.count--
						}
					}
					st.updates++
				}
				st.ops++
			}
		}(i)
	}
	ready.Wait()
	close(start)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()

	var res Result
	var deltaSum, deltaCount int64
	for i := range deltas {
		res.Ops += deltas[i].ops
		res.UpdateOps += deltas[i].updates
		res.RQOps += deltas[i].rqs
		deltaSum += deltas[i].sum
		deltaCount += deltas[i].count
	}
	res.Throughput = float64(res.Ops) / cfg.Duration.Seconds()

	sum, count := d.KeySum()
	res.KeySumOK = int64(sum) == int64(baseSum)+deltaSum &&
		int64(count) == int64(baseCount)+deltaCount

	if sp, ok := d.(engine.StatsSource); ok {
		res.PathStats = sp.OpStats()
	}
	return res
}
