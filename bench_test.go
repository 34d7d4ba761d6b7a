// Benchmarks regenerating the paper's tables and figures, one benchmark
// per artifact (Section 7 and the extension sections). Each benchmark
// iteration runs a fixed-length workload trial and reports throughput
// as ops/sec, so relative numbers across algorithms reproduce the
// figures' series. Run with:
//
//	go test -run '^$' -bench 'Fig|Sec|Headline|ShardScaling' -benchtime=1x .
//
// This file is the repository's only rendering of the paper's figures;
// how fast the system itself is, is bench/'s job (BENCHMARK.json).
package htmtree_test

import (
	"fmt"
	"testing"
	"time"

	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/citrus"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/hybridnorec"
	"htmtree/internal/kcas"
	"htmtree/internal/workload"
)

const (
	benchDuration = 100 * time.Millisecond
	benchThreads  = 4
	bstKeys       = 10000
	abKeys        = 50000
)

// figureAlgs are the series of Figures 14/15, figureThreads their x axis.
var (
	figureAlgs = []engine.Algorithm{
		engine.AlgNonHTM, engine.AlgTLE, engine.AlgTwoPathConc, engine.AlgThreePath,
	}
	figureThreads = []int{1, 2, 4, 8}
)

// runTrialBench runs one workload trial per iteration and reports
// throughput. Trials run benchThreads workers unless cfg names a count.
func runTrialBench(b *testing.B, mk func() dict.Dict, cfg workload.Config) {
	b.Helper()
	b.ReportAllocs()
	if cfg.Threads == 0 {
		cfg.Threads = benchThreads
	}
	cfg.Duration = benchDuration
	var tput float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		res := workload.Run(mk(), cfg)
		if !res.KeySumOK {
			b.Fatal("key-sum validation failed")
		}
		tput += res.Throughput
	}
	b.ReportMetric(tput/float64(b.N), "ops/sec")
}

// ---- Figure 14 (and 15): throughput vs threads, both trees, light and
// heavy. One sub-benchmark per (algorithm, thread count); the heavy
// workload starts at 2 threads because one of them is the range-query
// thread. ----

func benchFig14(b *testing.B, mk func(engine.Algorithm) dict.Dict, cfg workload.Config) {
	b.Helper()
	for _, alg := range figureAlgs {
		for _, threads := range figureThreads {
			if cfg.Kind == workload.Heavy && threads < 2 {
				continue
			}
			alg, cfg := alg, cfg
			cfg.Threads = threads
			b.Run(fmt.Sprintf("%v/threads=%d", alg, threads), func(b *testing.B) {
				runTrialBench(b, func() dict.Dict { return mk(alg) }, cfg)
			})
		}
	}
}

func newBST(alg engine.Algorithm) dict.Dict    { return bst.New(bst.Config{Algorithm: alg}) }
func newABTree(alg engine.Algorithm) dict.Dict { return abtree.New(abtree.Config{Algorithm: alg}) }

func BenchmarkFig14BSTLight(b *testing.B) {
	benchFig14(b, newBST, workload.Config{KeyRange: bstKeys, Kind: workload.Light})
}

func BenchmarkFig14BSTHeavy(b *testing.B) {
	benchFig14(b, newBST, workload.Config{KeyRange: bstKeys, RQSizeMax: 1000, Kind: workload.Heavy})
}

func BenchmarkFig14ABLight(b *testing.B) {
	benchFig14(b, newABTree, workload.Config{KeyRange: abKeys, Kind: workload.Light})
}

func BenchmarkFig14ABHeavy(b *testing.B) {
	benchFig14(b, newABTree, workload.Config{KeyRange: abKeys, RQSizeMax: 10000, Kind: workload.Heavy})
}

// ---- Figure 16: commit/abort rates (reported as custom metrics) ----

func BenchmarkFig16AbortRates(b *testing.B) {
	for _, alg := range []engine.Algorithm{engine.AlgTLE, engine.AlgTwoPathConc, engine.AlgThreePath} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			var commits, aborts uint64
			for i := 0; i < b.N; i++ {
				tr := abtree.New(abtree.Config{Algorithm: alg})
				res := workload.Run(tr, workload.Config{
					Threads: benchThreads, Duration: benchDuration,
					KeyRange: abKeys, RQSizeMax: 10000, Kind: workload.Heavy,
					Seed: uint64(i) + 1,
				})
				if !res.KeySumOK {
					b.Fatal("key-sum validation failed")
				}
				hs := res.PathStats
				commits += hs.Commits[htm.PathFast] + hs.Commits[htm.PathMiddle]
				aborts += hs.TotalAborts(htm.PathFast) + hs.TotalAborts(htm.PathMiddle)
			}
			total := commits + aborts
			if total > 0 {
				b.ReportMetric(100*float64(commits)/float64(total), "%commit")
				b.ReportMetric(100*float64(aborts)/float64(total), "%abort")
			}
		})
	}
}

// ---- Section 7.2: path usage ----

func BenchmarkSec72PathUsage(b *testing.B) {
	for _, kind := range []workload.Kind{workload.Light, workload.Heavy} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var fast, total uint64
			for i := 0; i < b.N; i++ {
				tr := abtree.New(abtree.Config{Algorithm: engine.AlgThreePath})
				res := workload.Run(tr, workload.Config{
					Threads: benchThreads, Duration: benchDuration,
					KeyRange: abKeys, RQSizeMax: 10000, Kind: kind,
					Seed: uint64(i) + 1,
				})
				if !res.KeySumOK {
					b.Fatal("key-sum validation failed")
				}
				fast += res.PathStats.Fast
				total += res.PathStats.Total()
			}
			b.ReportMetric(100*float64(fast)/float64(total), "%fast-path")
		})
	}
}

// ---- Figure 17: Hybrid NOrec ----

func BenchmarkFig17HybridNOrec(b *testing.B) {
	series := []struct {
		name string
		mk   func() dict.Dict
	}{
		{"3-path", func() dict.Dict { return bst.New(bst.Config{Algorithm: engine.AlgThreePath}) }},
		{"hybrid-norec", func() dict.Dict { return hybridnorec.NewBST(htm.Config{}, 0) }},
	}
	for _, s := range series {
		s := s
		b.Run(s.name, func(b *testing.B) {
			runTrialBench(b, s.mk, workload.Config{KeyRange: bstKeys, Kind: workload.Light})
		})
	}
}

// ---- Section 8: searches outside transactions (the BST, whose locate
// and revalidate implement it; the (a,b)-tree has no such mode) ----

func BenchmarkSec8SearchOutsideTx(b *testing.B) {
	for _, outside := range []bool{false, true} {
		outside := outside
		name := "search-in-tx"
		if outside {
			name = "search-outside-tx"
		}
		b.Run(name, func(b *testing.B) {
			runTrialBench(b,
				func() dict.Dict {
					return bst.New(bst.Config{
						Algorithm:       engine.AlgThreePath,
						SearchOutsideTx: outside,
					})
				},
				workload.Config{KeyRange: bstKeys, Kind: workload.Light})
		})
	}
}

// ---- Section 9: reclamation (allocation pressure of the template
// paths; the fast path's in-place updates allocate nothing) ----

func BenchmarkSec9AllocationPerOp(b *testing.B) {
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			tr := abtree.New(abtree.Config{Algorithm: alg})
			h := tr.NewHandle()
			for k := uint64(1); k <= 4096; k++ {
				h.Insert(k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i%4096) + 1
				h.Insert(k, uint64(i)) // value update: in place on fast path
			}
		})
	}
}

// ---- Section 10: CITRUS and k-CAS list ----

func BenchmarkSec10Citrus(b *testing.B) {
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			runTrialBench(b,
				func() dict.Dict { return citrus.New(citrus.Config{Algorithm: alg}) },
				workload.Config{KeyRange: bstKeys, Kind: workload.Light})
		})
	}
}

func BenchmarkSec10KCASList(b *testing.B) {
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			runTrialBench(b,
				func() dict.Dict { return kcas.NewList(kcas.ListConfig{Algorithm: alg}) },
				workload.Config{KeyRange: 256, Kind: workload.Light})
		})
	}
}

// ---- Shard scaling (beyond the paper): the key space partitioned
// across independent trees, each with its own engine, HTM context, and
// fallback indicator. Compare x1/x4/x16 within a structure. ----

func benchShardScaling(b *testing.B, structure string, keyRange, rqMax uint64) {
	b.Helper()
	for _, shards := range []int{1, 4, 16} {
		spec := workload.Spec{
			Structure: structure,
			Algorithm: engine.AlgThreePath,
			Shards:    shards,
			KeySpan:   keyRange,
		}
		b.Run(spec.Name(), func(b *testing.B) {
			runTrialBench(b, spec.New,
				workload.Config{KeyRange: keyRange, RQSizeMax: rqMax, Kind: workload.Heavy})
		})
	}
}

func BenchmarkShardScalingBST(b *testing.B) {
	benchShardScaling(b, "bst", bstKeys, 1000)
}

func BenchmarkShardScalingABTree(b *testing.B) {
	benchShardScaling(b, "abtree", abKeys, 10000)
}

// ---- Headline: (a,b)-tree 3-path vs non-htm ----

func BenchmarkHeadlineABTree(b *testing.B) {
	for _, alg := range []engine.Algorithm{engine.AlgNonHTM, engine.AlgThreePath} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			runTrialBench(b,
				func() dict.Dict { return abtree.New(abtree.Config{Algorithm: alg}) },
				workload.Config{KeyRange: abKeys, RQSizeMax: 10000, Kind: workload.Heavy})
		})
	}
}
