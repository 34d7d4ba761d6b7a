package main

import (
	"fmt"
	"strings"
	"time"
)

// The traced run. One worker climbs the layer ladder: every rung's
// kernel (layers.go) is timed in short slices, and the slices of all
// rungs are interleaved repetition by repetition so that host drift
// lands on every rung alike. The clock is read around batches of calls,
// not around each call (a clock read costs more than a cell access);
// what timing every call would cost is its own rung.

// rungSamples is what the slices of one rung yielded.
type rungSamples struct {
	ns      []float64 // ns per unit, one per repetition
	units   uint64
	mallocs uint64
	total   time.Duration
}

// measure runs the ladder: one untimed warm-up pass, then p.ladderReps
// interleaved repetitions.
func (l *ladder) measure(p params) map[string]*rungSamples {
	out := map[string]*rungSamples{}
	for _, name := range ladderRungs {
		out[name] = &rungSamples{}
		k := l.kernels[name]
		k.run(k.batch)
	}
	for rep := 0; rep < p.ladderReps; rep++ {
		for _, name := range ladderRungs {
			k, s := l.kernels[name], out[name]
			var units uint64
			m0 := mallocCount()
			start := time.Now()
			el := time.Duration(0)
			for el < p.ladderSlice {
				units += k.run(k.batch)
				el = time.Since(start)
			}
			s.mallocs += mallocCount() - m0
			s.units += units
			s.total += el
			if units > 0 {
				s.ns = append(s.ns, float64(el.Nanoseconds())/float64(units))
			}
		}
	}
	return out
}

// finish verifies every structure the ladder used.
func (l *ladder) finish() (errs []string) {
	for _, f := range l.finals {
		if err := f(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	return errs
}

// span is one record of trace.json: a rung of the ladder with the rung
// it nests in. total_ns is the time the benchmark's clock reads
// bracketed; ns is the per-call median; self_ns is what the rung adds on
// top of the rungs it contains or is measured against.
type span struct {
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Parent   string  `json:"parent"`
	Calls    uint64  `json:"calls"`
	TotalNS  int64   `json:"total_ns"`
	NS       float64 `json:"ns_per_call"`
	SelfNS   float64 `json:"self_ns"`
	RelSeq   float64 `json:"rel_seq"` // ns_per_call as a multiple of the reference tree's, paired per repetition
	AllocsPC float64 `json:"allocs_per_call"`
}

// ladderMetric derives one per-layer metric from the rung samples.
type ladderMetric struct {
	name   string
	rung   string // the rung timed
	minus  string // subtracted per repetition, if any
	div    float64
	parent string // span nesting
	pct    bool   // report (rung-minus)/minus in percent
}

var ladderMetrics = []ladderMetric{
	{name: "bench.seq_ns", rung: "seq", parent: "abtree.fast"},
	{name: "htm.cell_ns", rung: "cell"},
	{name: "htm.tx_empty_ns", rung: "tx_empty", parent: "abtree.fast"},
	{name: "htm.tx_read_ns", rung: "tx_r64", minus: "tx_r8", div: 56, parent: "htm.tx_empty"},
	{name: "htm.tx_write_ns", rung: "tx_w8", minus: "tx_w1", div: 7, parent: "htm.tx_empty"},
	{name: "htm.abort_ns", rung: "tx_abort"},
	{name: "engine.run_ns", rung: "engine_run", minus: "tx_body", parent: "abtree.fast"},
	{name: "engine.monitor_ns", rung: "engine_mon", minus: "engine_run", parent: "engine.run"},
	{name: "ebr.bracket_ns", rung: "ebr", parent: "abtree.fast"},
	{name: "abtree.fast_ns", rung: "abtree.fast", parent: "htmtree.facade"},
	{name: "abtree.middle_ns", rung: "abtree.middle"},
	{name: "abtree.fallback_ns", rung: "abtree.fallback"},
	{name: "abtree.tle_ns", rung: "abtree.tle"},
	{name: "abtree.tle-help_ns", rung: "abtree.tle-help"},
	{name: "abtree.scan_key_ns", rung: "abtree.scan"},
	{name: "abtree.rangeagg_ns", rung: "abtree.rangeagg"},
	{name: "bst.fast_ns", rung: "bst.fast"},
	{name: "bst.middle_ns", rung: "bst.middle"},
	{name: "bst.fallback_ns", rung: "bst.fallback"},
	{name: "bst.tle_ns", rung: "bst.tle"},
	{name: "bst.tle-help_ns", rung: "bst.tle-help"},
	{name: "bst.scan_key_ns", rung: "bst.scan"},
	{name: "shard.route_ns", rung: "shard", minus: "public", parent: "htmtree.facade"},
	{name: "shard.atomic_ns", rung: "shard_atomic", minus: "shard", parent: "shard.route"},
	{name: "htmtree.facade_ns", rung: "public", minus: "abtree.fast"},
	{name: "batch.op_ns", rung: "async", minus: "public", parent: "htmtree.facade"},
	{name: "obs.op_ns", rung: "obs", minus: "public", parent: "htmtree.facade"},
	{name: "bench.trace_overhead_pct", rung: "timed", minus: "public", pct: true, parent: "htmtree.facade"},
}

// chainRungs are the spans whose self times add up to one operation
// through the public facade: the sequential work, the fixed cost of one
// transaction, the engine's path policy, the reclamation bracket, what
// remains of the internal handle's time (transactional cell access and
// the tree's own bookkeeping), and the facade.
var chainRungs = []string{"bench.seq", "htm.tx_empty", "engine.run", "ebr.bracket", "abtree.fast", "htmtree.facade"}

// chainCheck compares the chain's self times with the measured top rung.
type chainCheck struct {
	SumSelfNS float64 `json:"sum_self_ns"`
	TopNS     float64 `json:"top_ns"`
	DiffPct   float64 `json:"diff_pct"`
}

// derive turns rung samples into the per-layer metrics and the spans.
func derive(samples map[string]*rungSamples) (map[string]float64, []span, chainCheck) {
	metrics := map[string]float64{}
	var spans []span
	seq := samples["seq"].ns
	for _, m := range ladderMetrics {
		s := samples[m.rung]
		vals := s.ns
		if m.minus != "" {
			base := samples[m.minus].ns
			vals = make([]float64, 0, len(s.ns))
			for i := range s.ns {
				if i >= len(base) {
					break
				}
				d := s.ns[i] - base[i]
				switch {
				case m.pct:
					d = d / base[i] * 100
				case m.div != 0:
					d /= m.div
				}
				vals = append(vals, d)
			}
		}
		v := median(vals)
		metrics[m.name] = v
		if m.pct {
			continue
		}
		name := m.name[:len(m.name)-len("_ns")]
		sp := span{
			Name: name, Layer: name[:strings.IndexByte(name, '.')], Parent: m.parent,
			Calls: s.units, TotalNS: s.total.Nanoseconds(),
			NS: median(s.ns), SelfNS: v, RelSeq: median(pairRatios(s.ns, seq)),
		}
		if s.units > 0 {
			sp.AllocsPC = float64(s.mallocs) / float64(s.units)
		}
		spans = append(spans, sp)
	}
	// abtree.fast contains the four rungs below it; its self time is
	// what they leave.
	var chk chainCheck
	for i := range spans {
		if spans[i].Name == "abtree.fast" {
			for _, c := range spans {
				if c.Parent == "abtree.fast" {
					spans[i].SelfNS -= c.SelfNS
				}
			}
		}
	}
	inChain := map[string]bool{}
	for _, c := range chainRungs {
		inChain[c] = true
	}
	for _, sp := range spans {
		if inChain[sp.Name] {
			chk.SumSelfNS += sp.SelfNS
		}
	}
	chk.TopNS = median(samples["public"].ns)
	if chk.TopNS != 0 {
		chk.DiffPct = (chk.SumSelfNS - chk.TopNS) / chk.TopNS * 100
	}
	return metrics, spans, chk
}

// ladderResult is what one climb of the ladder yields.
type ladderResult struct {
	metrics map[string]float64
	spans   []span
	chain   chainCheck
	tl      tally
	errs    []string
}

// runLadder builds, measures and verifies the ladder.
func runLadder(seed uint64, p params) ladderResult {
	l, err := newLadder(seed)
	if err != nil {
		return ladderResult{errs: []string{err.Error()}}
	}
	samples := l.measure(p)
	res := ladderResult{errs: l.finish()}
	res.tl = l.tl // finish folds every tree's tally into it
	for _, name := range ladderRungs {
		if len(samples[name].ns) == 0 {
			res.errs = append(res.errs, fmt.Sprintf("ladder %s: no samples", name))
		}
	}
	res.metrics, res.spans, res.chain = derive(samples)
	return res
}
