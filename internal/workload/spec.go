package workload

import (
	"fmt"
	"runtime"
	"strconv"

	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/obs"
	"htmtree/internal/shard"
)

// Spec names one dictionary configuration for benchmarks and tests: a
// structure, a template algorithm, and an optional shard count. It is
// the shard-aware counterpart of constructing a tree directly, so sweep
// drivers (cmd/htmbench, bench_test.go) can enumerate configurations
// uniformly.
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
	// SearchOutsideTx enables the Section 8 optimization.
	SearchOutsideTx bool
	// AtomicRQ makes cross-shard RangeQuery and KeySum atomic via
	// per-shard version validation (ignored when unsharded).
	AtomicRQ bool
	// Router selects the shard routing policy: "" or "range" (the
	// contiguous default), "hash" (skew-oblivious scattering), or
	// "adaptive" (range routing plus live key-range rebalancing).
	// Ignored when unsharded.
	Router string
	// RebalanceCheckOps and RebalanceRatio tune the adaptive router's
	// evaluation cadence and trigger threshold (0 selects the shard
	// layer defaults). Ignored unless Router is "adaptive".
	RebalanceCheckOps int
	RebalanceRatio    float64
	// HTM overrides the simulated-HTM configuration.
	HTM htm.Config
	// Policy selects the engine retry policy by name ("" or "adaptive",
	// "static"); see engine.ParsePolicy.
	Policy string
	// Helpable replaces the TLE fallback's classic spin lock with the
	// announce/help protocol (engine.Config.HelpableFallback). TLE only.
	Helpable bool
	// AttemptLimit overrides the fast-path attempt budget for TLE and
	// the 2-path algorithms (0 keeps the engine default). Oversubscribed
	// trials set it low to force fallback traffic.
	AttemptLimit int
	// PreemptFallback injects a scheduling yield (runtime.Gosched) right
	// after each fallback operation takes — or, with Helpable, announces
	// under — the fallback lock, simulating the worst-case preemption of
	// a lock holder that oversubscription makes likely. It is a
	// fault.PointFallbackOwner rule added to a copy of Faults; for any
	// other injection at that spot put the rule in Faults directly.
	PreemptFallback bool
	// Observe, when non-nil, attaches the live observability layer
	// (metrics registry, flight recorder, latency sampling) with the
	// given configuration. Retrieve the domain via NewObserved; a plain
	// New discards it.
	Observe *obs.Config
	// Faults, when non-nil, arms the deterministic fault-injection
	// plane across every layer of the constructed dictionary (HTM
	// accesses, fallback owners, reclamation pins, and — when sharded —
	// quiesce gates and migrations). The chaos experiment's seam. When
	// Observe is also set, fired faults are recorded in the flight
	// recorder.
	Faults *fault.Plan
}

// Name returns a compact label, e.g. "abtree/3-path/x8" or
// "abtree/3-path/x8/hash". An explicit Shards of 1 is labeled "/x1"
// so a shard sweep's baseline stays distinguishable from unsharded
// (Shards == 0) series; non-default routers and atomic-RQ specs are
// suffixed so configurations cannot be confused in CSV output.
func (s Spec) Name() string {
	n := s.Structure + "/" + s.Algorithm.String()
	if s.Shards >= 1 {
		n += fmt.Sprintf("/x%d", s.Shards)
	}
	if s.Router != "" && s.Router != "range" {
		n += "/" + s.Router
	}
	if s.AtomicRQ {
		n += "/atomic"
	}
	if s.Helpable {
		n += "/help"
	}
	return n
}

// New constructs a fresh dictionary instance described by the spec.
// It panics on an unknown structure name (specs are authored by sweep
// drivers, not end users).
func (s Spec) New() dict.Dict {
	d, _ := s.NewObserved()
	return d
}

// NewObserved constructs the spec's dictionary together with its
// observability domain. The domain is nil unless Spec.Observe is set;
// with it, each engine registers its metric families (per-shard trees
// under a shard="i" label) and every engine thread carries a flight
// recorder.
func (s Spec) NewObserved() (dict.Dict, *obs.Obs) {
	if s.PreemptFallback {
		s.Faults = s.Faults.With(fault.Rule{Point: fault.PointFallbackOwner, Func: runtime.Gosched})
	}
	var o *obs.Obs
	if s.Observe != nil {
		o = obs.New(*s.Observe)
		if s.Faults != nil {
			// Bridge fired faults into the flight recorder so a chaos
			// run's event stream names its injections (cold events;
			// A = fault point, B = per-point fire sequence).
			rec := o.Node().NewThread()
			s.Faults.SetOnFire(func(e fault.Effect) {
				kind := obs.EvFaultStall
				switch {
				case e.Point == fault.PointTxAccess:
					kind = obs.EvFaultAbort
				case e.Kill:
					kind = obs.EvFaultKill
				}
				rec.RareEvent(kind, 0, htm.CauseNone, uint64(e.Point), e.Seq)
			})
		}
	}
	root := func() *obs.Node {
		if o == nil {
			return nil
		}
		return o.Node()
	}
	mk := func(mon *engine.UpdateMonitor, node *obs.Node) dict.Dict {
		pol, ok := engine.ParsePolicy(s.Policy)
		if !ok {
			panic(fmt.Sprintf("workload: unknown retry policy %q", s.Policy))
		}
		ecfg := engine.Config{
			Monitor:          mon,
			Policy:           pol,
			HelpableFallback: s.Helpable,
			AttemptLimit:     s.AttemptLimit,
			Obs:              node,
			Faults:           s.Faults,
		}
		hcfg := s.HTM
		if hcfg.Faults == nil {
			hcfg.Faults = s.Faults
		}
		switch s.Structure {
		case "bst":
			return bst.New(bst.Config{
				Algorithm:       s.Algorithm,
				SearchOutsideTx: s.SearchOutsideTx,
				Engine:          ecfg,
				HTM:             hcfg,
			})
		case "abtree":
			return abtree.New(abtree.Config{
				Algorithm:       s.Algorithm,
				SearchOutsideTx: s.SearchOutsideTx,
				Engine:          ecfg,
				HTM:             hcfg,
			})
		default:
			panic(fmt.Sprintf("workload: unknown structure %q", s.Structure))
		}
	}
	if s.Shards <= 1 {
		return mk(nil, root()), o
	}
	scfg := shard.Config{
		Shards:  s.Shards,
		KeySpan: s.KeySpan,
		Atomic:  s.AtomicRQ,
		Obs:     root(),
		Faults:  s.Faults,
		New: func(i int, mon *engine.UpdateMonitor) dict.Dict {
			var node *obs.Node
			if o != nil {
				node = o.Node(obs.L("shard", strconv.Itoa(i)))
			}
			return mk(mon, node)
		},
	}
	switch s.Router {
	case "", "range":
	case "hash":
		r, err := shard.NewHashRouter(s.Shards)
		if err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
		scfg.Router = r
	case "adaptive":
		scfg.Rebalance = &shard.RebalanceConfig{
			CheckOps: s.RebalanceCheckOps,
			Ratio:    s.RebalanceRatio,
		}
	default:
		panic(fmt.Sprintf("workload: unknown router %q", s.Router))
	}
	d, err := shard.New(scfg)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err)) // only reachable via an invalid Spec
	}
	return d, o
}
