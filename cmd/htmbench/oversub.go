package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/hist"
	"htmtree/internal/htm"
	"htmtree/internal/workload"
)

// The oversub experiment runs more threads than GOMAXPROCS so the
// scheduler preempts threads inside the fallback critical section, and
// compares the classic TLE lock against the helpable lock-free lock.
// With the classic lock a descheduled owner convoys the whole shard —
// every fast path subscribes to the lock word and every other fallback
// spins on it — so the convoy shows up as a p999 plateau of scheduling
// quanta. With the helpable fallback any running thread completes the
// announced operation instead of waiting, which removes the owner from
// the critical path and collapses the tail.
//
// The configuration forces the pathology deterministically: GOMAXPROCS
// is pinned (default 2) under an 8+ thread workload, a spurious-abort
// injection drives a small share of operations off the fast path, and
// a fault.PointFallbackOwner stall deschedules the fallback thread (a sleep, not a
// yield — a yielded goroutine goes straight back on the run queue,
// which understates a real quantum loss) at the worst possible
// instant: holding, or having announced under, the fallback lock.
//
// Only every oversubSleepEvery-th fallback is descheduled. The split
// keeps the two tail populations apart: the preempted owner's own
// operation necessarily eats the descheduling in BOTH variants, so
// descheduling events must stay below the p999 rank (0.1% of
// operations), while each classic-lock convoy turns all threads-1
// peers into victims — and that amplified population is what crosses
// the p999 rank for the classic lock only. The helpable lock removes
// exactly the victims, which is the measured difference.
//
// Workers yield between operations (workload.Config.YieldEvery: 1) so
// the timed window never spans a scheduling-quantum boundary. Without
// it every worker runs until sysmon preempts it mid-operation and the
// in-flight operation is charged a multi-quantum run-queue wait;
// that procs-bound population (~GOMAXPROCS/10ms events/s at 10ms+
// each) sits at the p999 rank in BOTH variants and buries the convoy
// signal under identical scheduler noise.
//
// Spurious rates are per transactional access, and an (a,b)-tree
// operation touches an order of magnitude more words than a BST
// operation, hence the per-structure split.
const (
	oversubProcs      = 2                    // GOMAXPROCS pin during the experiment
	oversubKeys       = 512                  // small key range: genuine conflicts too
	oversubAttempts   = 2                    // fast-path budget before the fallback
	oversubPreempt    = 8 * time.Millisecond // simulated quantum loss in the fallback
	oversubSleepEvery = 16                   // deschedule 1 in N fallbacks; others yield
)

// oversubSpurious is the per-structure spurious-abort injection rate
// (one per N transactional accesses).
var oversubSpurious = map[string]uint64{"bst": 20, "abtree": 48}

// oversubRow is one measured configuration; it is both the JSON
// artifact row (with the full latency histogram embedded, the
// acceptance artifact for comparing fallback variants) and the source
// of the uniform CSV row.
type oversubRow struct {
	Schema     int           `json:"schema"`
	Name       string        `json:"name"` // structure/oversub/fallback
	Structure  string        `json:"structure"`
	Fallback   string        `json:"fallback"` // "tle" or "helpable"
	Procs      int           `json:"gomaxprocs"`
	Threads    int           `json:"threads"`
	Shards     int           `json:"shards"`
	Throughput float64       `json:"throughput"`
	P50Ns      uint64        `json:"p50_ns"`
	P99Ns      uint64        `json:"p99_ns"`
	P999Ns     uint64        `json:"p999_ns"`
	MaxNs      uint64        `json:"max_ns"`
	Fallbacks  uint64        `json:"fallbacks"` // operations completed on the fallback path
	Helps      uint64        `json:"helps"`     // announced ops completed by a helper-side executor
	Hist       []hist.Bucket `json:"latency_hist"`

	lat *hist.Hist
}

// runOversub measures both trees × {classic TLE, helpable} fallback
// under oversubscription. Trials are summarized by median p999 — the
// quantity the experiment is about; throughput medians would let one
// lucky schedule hide the convoy.
// oversubThreads is the worker count: oversubscribed well past the
// processor pin, even when the -threads sweep tops out lower.
func oversubThreads(o options) int {
	return max(o.threads[len(o.threads)-1], 8*oversubProcs)
}

func runOversub(o options) []oversubRow {
	prev := runtime.GOMAXPROCS(oversubProcs)
	defer runtime.GOMAXPROCS(prev)
	threads := oversubThreads(o)
	var rows []oversubRow
	for _, structure := range []string{"bst", "abtree"} {
		for _, fallback := range []string{"tle", "helpable"} {
			spec := workload.Spec{
				Structure:    structure,
				Algorithm:    engine.AlgTLE,
				Shards:       o.shards,
				KeySpan:      oversubKeys,
				Router:       o.router,
				HTM:          o.htmCfg(htm.Config{SpuriousEvery: oversubSpurious[structure]}),
				Policy:       o.policy,
				Helpable:     fallback == "helpable",
				AttemptLimit: oversubAttempts,
				// No yield on the other fallbacks: an injected Gosched
				// parks the measuring thread behind every CPU-hot peer,
				// which charges ~a scheduling quantum to the measured
				// operation in either variant — noise, not protocol.
				Faults: fault.New(0, fault.Rule{
					Point: fault.PointFallbackOwner,
					Every: oversubSleepEvery,
					Stall: oversubPreempt,
				}),
			}
			results := make([]workload.Result, 0, o.trials)
			for i := 0; i < o.trials; i++ {
				res := workload.Run(o.newDict(spec), workload.Config{
					Threads:        threads,
					Duration:       o.duration,
					KeyRange:       oversubKeys,
					Kind:           workload.Light,
					Seed:           trialSeed(o.seed, i),
					MeasureLatency: true,
					YieldEvery:     1,
				})
				if !res.KeySumOK {
					fmt.Fprintf(os.Stderr, "WARNING: oversub %s/%s key-sum validation FAILED\n",
						structure, fallback)
				}
				results = append(results, res)
			}
			sort.Slice(results, func(i, j int) bool {
				return results[i].Latency.Quantile(0.999) < results[j].Latency.Quantile(0.999)
			})
			med := results[len(results)/2]
			rows = append(rows, oversubRow{
				Schema:     schemaVersion,
				Name:       fmt.Sprintf("%s/oversub/%s", structure, fallback),
				Structure:  structure,
				Fallback:   fallback,
				Procs:      oversubProcs,
				Threads:    threads,
				Shards:     o.shards,
				Throughput: med.Throughput,
				P50Ns:      med.Latency.Quantile(0.5),
				P99Ns:      med.Latency.Quantile(0.99),
				P999Ns:     med.Latency.Quantile(0.999),
				MaxNs:      med.Latency.Max(),
				Fallbacks:  med.PathStats.Fallback,
				Helps:      med.PathStats.Policy.Helps,
				Hist:       med.Latency.Buckets(),
				lat:        med.Latency,
			})
		}
	}
	return rows
}

// oversub prints the uniform CSV rows; each helpable row carries the
// p999 improvement over its tree's classic-TLE baseline in extras.
func oversub(o options) {
	fmt.Printf("# Oversubscription: %d threads on GOMAXPROCS=%d, TLE vs helpable fallback\n",
		oversubThreads(o), oversubProcs)
	fmt.Println("# extras: gomaxprocs, fallback, fallbacks, helps, max_ns, p999_speedup_vs_tle")
	rows := runOversub(o)
	baseline := map[string]uint64{}
	for _, r := range rows {
		if r.Fallback == "tle" {
			baseline[r.Structure] = r.P999Ns
		}
	}
	for _, r := range rows {
		extras := []string{
			kv("gomaxprocs", "%d", r.Procs),
			kv("fallback", "%s", r.Fallback),
			kv("fallbacks", "%d", r.Fallbacks),
			kv("helps", "%d", r.Helps),
			kv("max_ns", "%d", r.MaxNs),
		}
		if r.Fallback == "helpable" && r.P999Ns > 0 {
			extras = append(extras,
				kv("p999_speedup_vs_tle", "%.2f", float64(baseline[r.Structure])/float64(r.P999Ns)))
		}
		row{
			experiment: "oversub", structure: r.Structure, workload: "light",
			algorithm: "tle", threads: r.Threads, shards: r.Shards,
			throughput: r.Throughput, lat: r.lat, extras: extras,
		}.emit()
	}
}

// oversubJSON emits the full artifact — every configuration with its
// embedded latency histogram — for `-format json -experiment oversub`
// (the CI regression guard and the committed acceptance evidence).
func oversubJSON(o options) error {
	rows := runOversub(o)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
