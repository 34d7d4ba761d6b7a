package main

// The metric catalogue. BENCHMARK.json lists the same names, units and
// directions (the self-test compares the two); bench/README.md says what
// each one means and what moves it.

type metricDef struct {
	name, unit string
	higher     bool // better direction
}

// endToEnd metrics are what a caller of the tree sees; BENCHMARK.json
// bounds each. The two timed ones are in units of the reference kernel:
// operations (or keys returned) per reference operation. The latency
// ratios ISSUE 12 also wanted here are under host. below, by the issue's
// own rule for a metric that cannot reach a usable bound, and
// allocs_per_op and failed_share are per-layer because they are 0 when
// all is well, which a relative bound cannot express; --compare applies
// the issue's absolute bounds to those two. README.md has the numbers.
var endToEnd = []metricDef{
	{"ops_rel", "ratio", true},
	{"w1_rel", "ratio", true},
	{"live_heap_mb", "MB", false},
	{"setup_s", "s", false},
}

// perLayer metrics: counters read as Tree.Stats deltas, raw host-speed
// numbers (never gated), the instrument's own bookkeeping, and the
// ladder rungs.
var perLayer = append([]metricDef{
	{"engine.fast_share", "ratio", true},
	{"engine.middle_share", "ratio", false},
	{"engine.fallback_share", "ratio", false},
	{"engine.backoffs_per_kop", "1/kop", false},
	{"engine.capacity_skips_per_kop", "1/kop", false},
	{"engine.demotions_per_kop", "1/kop", false},
	{"htm.commit_ratio", "ratio", true},
	{"htm.aborts_per_op", "1/op", false},
	{"htm.abort_conflict_per_kop", "1/kop", false},
	{"htm.abort_capacity_per_kop", "1/kop", false},
	{"htm.abort_explicit_per_kop", "1/kop", false},
	{"htm.abort_spurious_per_kop", "1/kop", false},
	{"shard.rq_attempts_per_scan", "1/scan", false},
	{"shard.rq_retries_per_scan", "1/scan", false},
	{"shard.rq_escalations_per_kscan", "1/kscan", false},
	{"host.ops_s", "1/s", true},
	{"host.ref_ops_s", "1/s", true},
	{"host.w1_work_s", "1/s", true},
	{"host.point_p50_ns", "ns", false},
	{"host.point_p99_ns", "ns", false},
	{"host.w1_p50_ns", "ns", false},
	{"host.w1_p99_ns", "ns", false},
	{"host.point_p50_x", "x", false},
	{"host.point_p99_x", "x", false},
	{"host.w1_p50_x", "x", false},
	{"host.w1_p99_x", "x", false},
	{"host.setup_wall_s", "s", false},
	{"allocs_per_op", "1/op", false},
	{"failed_share", "ratio", false},
	{"bench.point_samples", "count", true},
	{"bench.w1_samples", "count", true},
	{"bench.pairs_kept", "count", true},
}, ladderDefs()...)

func ladderDefs() []metricDef {
	var d []metricDef
	for _, m := range ladderMetrics {
		unit := "ns"
		if m.pct {
			unit = "%"
		}
		d = append(d, metricDef{m.name, unit, false})
	}
	return d
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics computes every workload metric of a run: the end-to-end ones
// and the per-layer ones that come from counters and raw rates. A timed
// metric is the median, over the pairs whose reference slice ran at full
// speed (estimate.go), of the tree slice's value in units of its own
// pair's reference slice: rates as tree rate / reference rate, latencies
// as multiples of the reference operation's mean time. The host. numbers
// in ops/s and ns are the medians of the same slices undivided.
func (r *runResult) metrics() map[string]float64 {
	all := make([]float64, len(r.slices))
	for i, s := range r.slices {
		all[i] = s.refRate
	}
	keep := undisturbed(all)
	col := func(f func(sliceSample) float64) []float64 {
		v := make([]float64, len(keep))
		for i, k := range keep {
			v[i] = f(r.slices[k])
		}
		return v
	}
	over := func(f func(sliceSample) float64) float64 { return median(col(f)) }
	ref := col(func(s sliceSample) float64 { return s.refRate })
	// rel is a rate per reference operation per second; x is a latency
	// in reference operations.
	rel := func(rate func(sliceSample) float64) float64 { return median(pairRatios(col(rate), ref)) }
	x := func(ns func(sliceSample) float64) float64 {
		v := col(ns)
		for i := range v {
			v[i] *= ref[i] / 1e9
		}
		return median(v)
	}
	pointRate := func(s sliceSample) float64 { return s.pointRate }
	w1Rate := func(s sliceSample) float64 { return s.w1Rate }
	pointP50 := func(s sliceSample) float64 { return s.pointP50 }
	pointP99 := func(s sliceSample) float64 { return s.pointP99 }
	w1P50 := func(s sliceSample) float64 { return s.w1P50 }
	w1P99 := func(s sliceSample) float64 { return s.w1P99 }

	c := r.ctr
	ops := c[cFast] + c[cMiddle] + c[cFallback]
	kcalls := float64(r.calls) / 1000
	perK := func(n uint64) float64 {
		if kcalls == 0 {
			return 0
		}
		return float64(n) / kcalls
	}
	m := map[string]float64{
		"ops_rel":      rel(pointRate),
		"w1_rel":       rel(w1Rate),
		"live_heap_mb": median(r.heapMB),
		"setup_s":      median(r.setupS),

		"engine.fast_share":             ratio(c[cFast], ops),
		"engine.middle_share":           ratio(c[cMiddle], ops),
		"engine.fallback_share":         ratio(c[cFallback], ops),
		"engine.backoffs_per_kop":       perK(c[cBackoffs]),
		"engine.capacity_skips_per_kop": perK(c[cCapSkips]),
		"engine.demotions_per_kop":      perK(c[cDemotions]),

		"htm.commit_ratio":           ratio(c[cCommits], c[cCommits]+c[cAborts]),
		"htm.aborts_per_op":          ratio(c[cAborts], r.calls),
		"htm.abort_conflict_per_kop": perK(c[cConflict]),
		"htm.abort_capacity_per_kop": perK(c[cCapacity]),
		"htm.abort_explicit_per_kop": perK(c[cExplicit]),
		"htm.abort_spurious_per_kop": perK(c[cSpurious]),

		"shard.rq_attempts_per_scan":     ratio(c[cRQAttempts], r.scans),
		"shard.rq_retries_per_scan":      ratio(c[cRQRetries], r.scans),
		"shard.rq_escalations_per_kscan": ratio(c[cRQEscalations], r.scans) * 1000,

		"host.ops_s":        over(pointRate),
		"host.ref_ops_s":    median(ref),
		"host.w1_work_s":    over(w1Rate),
		"host.point_p50_ns": over(pointP50),
		"host.point_p99_ns": over(pointP99),
		"host.w1_p50_ns":    over(w1P50),
		"host.w1_p99_ns":    over(w1P99),
		"host.point_p50_x":  x(pointP50),
		"host.point_p99_x":  x(pointP99),
		"host.w1_p50_x":     x(w1P50),
		"host.w1_p99_x":     x(w1P99),
		"host.setup_wall_s": median(r.setupRawS),

		"allocs_per_op":       ratio(r.mallocs, r.calls),
		"failed_share":        ratio(r.tl.failed, r.tl.attempted),
		"bench.point_samples": float64(r.pointSamp),
		"bench.w1_samples":    float64(r.w1Samp),
		"bench.pairs_kept":    float64(len(keep)),
	}
	return m
}
