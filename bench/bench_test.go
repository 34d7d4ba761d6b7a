package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// The instrument's own tests: each piece the numbers rest on is checked
// against a model that is too simple to be wrong.

func TestHistQuantilesAgainstSortedSlice(t *testing.T) {
	r := newRNG(7, 0)
	var h hist
	var vals []float64
	for i := 0; i < 50_000; i++ {
		// log-uniform over 10 ns .. 10 ms, the range latencies live in
		v := uint64(10 * math.Pow(1e6, float64(r.next()>>11)/(1<<53)))
		h.record(v)
		vals = append(vals, float64(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("q=%g: histogram %g, sorted slice %g (more than 3 %% apart)", q, got, want)
		}
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge changed the median or lost samples")
	}
	h.reset()
	if h.n != 0 || h.quantile(0.5) != 0 {
		t.Errorf("reset left samples behind")
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1 << 41, 1 << 50, ^uint64(0)} {
		i := histIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d, not monotonic inside [0,%d)", v, i, histBuckets)
		}
		prev = i
	}
}

func TestRefTreeAgainstMap(t *testing.T) {
	const keys = 300
	tree := newRefTree(keys)
	model := map[uint64]uint64{}
	g := opGen{r: newRNG(3, 0), keys: keys, mix: mix{40, 40}}
	for i := 0; i < 100_000; i++ {
		kind, key := g.next()
		want, had := model[key]
		var got uint64
		var ok bool
		switch kind {
		case opInsert:
			got, ok = tree.Insert(key, uint64(i))
			model[key] = uint64(i)
		case opDelete:
			got, ok = tree.Delete(key)
			delete(model, key)
		default:
			got, ok = tree.Search(key)
		}
		if ok != had || (had && got != want) {
			t.Fatalf("op %d kind %d key %d: tree (%d,%v), map (%d,%v)", i, kind, key, got, ok, want, had)
		}
	}
	var sum uint64
	for k := range model {
		sum += k
	}
	if s, c := tree.KeySum(); s != sum || c != uint64(len(model)) {
		t.Fatalf("KeySum = (%d,%d), map has (%d,%d)", s, c, sum, len(model))
	}
}

func TestRefTreeDoesNotAllocate(t *testing.T) {
	tree := newRefTree(1000)
	g := opGen{r: newRNG(1, 0), keys: 1000, mix: mixUpdate}
	var tl tally
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10_000; i++ {
			doPoint(tree, &g, &tl)
		}
	}); avg != 0 {
		t.Errorf("reference kernel allocated %.1f times per 10000 operations", avg)
	}
}

// streamHash folds the first n operations of a worker's stream.
func streamHash(seed, worker uint64, n int) uint64 {
	g := opGen{r: newRNG(seed, worker), keys: 100_000, mix: mixLookup}
	s := scanGen{r: newRNG(seed, worker), keys: 100_000, maxLen: 10_000}
	h := fnv.New64a()
	var b [24]byte
	for i := 0; i < n; i++ {
		kind, key := g.next()
		lo, hi := s.next()
		for j, v := range []uint64{uint64(kind)<<32 ^ key, lo, hi} {
			for k := 0; k < 8; k++ {
				b[8*j+k] = byte(v >> (8 * k))
			}
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestOpStreamIsAFunctionOfSeedAndWorker(t *testing.T) {
	if streamHash(42, 1, 5000) != streamHash(42, 1, 5000) {
		t.Error("same seed and worker gave different streams")
	}
	if streamHash(42, 1, 5000) == streamHash(42, 0, 5000) || streamHash(42, 1, 5000) == streamHash(43, 1, 5000) {
		t.Error("different seed or worker gave the same stream")
	}
}

func TestOpStreamMixAndRange(t *testing.T) {
	g := opGen{r: newRNG(9, 0), keys: 1000, mix: mixLookup}
	var n [3]int
	for i := 0; i < 200_000; i++ {
		kind, key := g.next()
		if key < 1 || key > 1000 {
			t.Fatalf("key %d outside [1,1000]", key)
		}
		n[kind]++
	}
	for kind, want := range []float64{0.05, 0.05, 0.90} {
		if got := float64(n[kind]) / 200_000; math.Abs(got-want) > 0.005 {
			t.Errorf("kind %d: share %.4f, want %.2f", kind, got, want)
		}
	}
	s := scanGen{r: newRNG(9, 1), keys: 1000, maxLen: 100}
	for i := 0; i < 10_000; i++ {
		lo, hi := s.next()
		if lo < 1 || lo > 1000 || hi <= lo || hi-lo > 100 {
			t.Fatalf("scan [%d,%d) outside the extent distribution", lo, hi)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %g, %g, median %g; Python gives 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: the clamp extrapolates
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles([1,2]) = %g, %g; Python gives 0.75, 2.25", q1, q3)
	}
	if s := spread(v); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

// syntheticRun is a run of 60 pairs in which the tree does rate
// operations per second at p50 ns median latency while the reference
// kernel does ref, on a host like the real one. For shared of the time,
// in spells of five pairs, the two vCPUs share a core: the kernel runs at
// half speed, the tree at four fifths. Every seventh pair straddles a
// move, so only its tree slice is slowed; one tree slice nearly stalls.
// slowShare of the tree slices are also slow by the tree's own doing:
// half the rate while the reference is not touched.
func syntheticRun(rate, p50, ref, shared, slowShare float64) *runResult {
	r := &runResult{}
	rnd := newRNG(5, 0)
	unit := func() float64 { return float64(rnd.next()>>11) / (1 << 53) }
	tree, kern := 1.0, 1.0
	for i := 0; i < 60; i++ {
		if i%5 == 0 {
			tree, kern = 1, 1
			if unit() < shared {
				tree, kern = 0.8, 0.5
			}
		}
		t := tree
		switch {
		case i == 17:
			t = 0.05
		case i%7 == 3:
			t = 1.8 - tree // the move came between the two slices
		}
		if unit() < slowShare {
			t /= 2
		}
		r.slices = append(r.slices, sliceSample{
			refRate:   ref * kern,
			pointRate: rate * t, pointP50: p50 / t, pointP99: 8 * p50 / t,
			w1Rate: rate * t, w1P50: p50 / t, w1P99: 8 * p50 / t,
		})
	}
	return r
}

func TestEstimatorCancelsTheHostAndSeesTheTree(t *testing.T) {
	m := syntheticRun(5e5, 1500, 1e7, 0.3, 0).metrics()
	near := func(name string, want float64) {
		t.Helper()
		if got := m[name]; math.Abs(got-want) > 0.01*want {
			t.Errorf("%s = %g, want %g within 1 %%", name, got, want)
		}
	}
	near("ops_rel", 0.05)
	near("w1_rel", 0.05)
	near("host.point_p50_x", 15) // 1500 ns at 1e7 reference operations per second
	near("host.point_p99_x", 120)
	// The mean of the same slices is what the host moves.
	var rates []float64
	for _, s := range syntheticRun(5e5, 1500, 1e7, 0.3, 0).slices {
		rates = append(rates, s.pointRate)
	}
	if mean(rates) > 0.95*5e5 {
		t.Error("the synthetic disturbance is too weak to tell the estimators apart")
	}
	// How much of the run the vCPUs shared a core, and how fast the CPU
	// is altogether, must not matter.
	for name, other := range map[string]*runResult{
		"a host that shares the core most of the time": syntheticRun(5e5, 1500, 1e7, 0.7, 0),
		"a CPU at 70 % of its speed":                   syntheticRun(0.7*5e5, 1500/0.7, 0.7*1e7, 0.3, 0),
	} {
		o := other.metrics()
		for _, k := range []string{"ops_rel", "w1_rel", "host.point_p50_x"} {
			if math.Abs(o[k]-m[k]) > 0.01*m[k] {
				t.Errorf("%s moved from %g to %g on %s", k, m[k], o[k], name)
			}
		}
	}
	// A run that never had a core per vCPU has no full-speed pairs to
	// keep: it uses all of them and reports the shared-core ratio.
	if o := syntheticRun(5e5, 1500, 1e7, 1, 0).metrics(); math.Abs(o["ops_rel"]-0.08) > 0.01*0.08 || o["bench.pairs_kept"] != 60 {
		t.Errorf("all-shared run: ops_rel = %g from %g pairs, want 0.08 from 60", o["ops_rel"], o["bench.pairs_kept"])
	}
	// The tree's own slow regime is not the host's: when the share of
	// slices it spends there grows from 30 % to 85 %, with the reference
	// as fast as ever, the metrics must say so by more than any bound.
	some := syntheticRun(5e5, 1500, 1e7, 0.3, 0.30).metrics()
	most := syntheticRun(5e5, 1500, 1e7, 0.3, 0.85).metrics()
	for _, k := range []string{"ops_rel", "w1_rel"} {
		if most[k] > 0.75*some[k] {
			t.Errorf("%s = %g with 85 %% of the tree slices slow, %g with 30 %%: the slow regime is hidden", k, most[k], some[k])
		}
	}
	if most["host.point_p50_x"] < 1.25*some["host.point_p50_x"] {
		t.Errorf("host.point_p50_x = %g with 85 %% of the tree slices slow, %g with 30 %%", most["host.point_p50_x"], some["host.point_p50_x"])
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func TestOracleFlagsBadResults(t *testing.T) {
	var tl tally
	tl.insert(5, 0, false)
	tl.insert(5, valueOf(5), true)
	tl.search(5, valueOf(5), true)
	tl.delete(5, valueOf(5), true)
	tl.delete(5, 0, false)
	if tl.failed != 0 || tl.attempted != 5 || tl.sum != 0 || tl.count != 0 {
		t.Fatalf("clean history tallied as %+v", tl)
	}
	tl.search(6, valueOf(6)+1, true) // corrupted value
	tl.insert(6, 123, true)
	tl.delete(6, 123, true)
	if tl.failed != 3 {
		t.Errorf("3 corrupted values, %d flagged", tl.failed)
	}

	check := func(lo, hi uint64, keys ...uint64) bool {
		c := scanCheck{lo: lo, hi: hi}
		for _, k := range keys {
			c.elem(k, valueOf(k))
		}
		return !c.bad
	}
	if !check(10, 20, 10, 11, 19) || !check(10, 20) {
		t.Error("good scans flagged")
	}
	if check(10, 20, 11, 10) || check(10, 20, 11, 11) {
		t.Error("unsorted or repeated scan not flagged")
	}
	if check(10, 20, 9) || check(10, 20, 20) {
		t.Error("scan outside [lo,hi) not flagged")
	}
	c := scanCheck{lo: 1, hi: 9}
	c.elem(3, 3)
	if !c.bad {
		t.Error("scan with a corrupted value not flagged")
	}

	tl = tally{sum: 100, count: 3}
	if tl.checkFinal(100, 3, nil) != nil {
		t.Error("matching key-sum flagged")
	}
	if tl.checkFinal(101, 3, nil) == nil || tl.checkFinal(100, 2, nil) == nil {
		t.Error("key-sum mismatch not flagged")
	}
	if tl.checkFinal(100, 3, errors.New("broken")) == nil {
		t.Error("invariant violation not flagged")
	}
}

// writeResult writes a hand-made result.json with one workload.
func writeResult(t *testing.T, dir, name string, metrics map[string][]float64, failed uint64) string {
	t.Helper()
	f := resultFile{Schema: 1, Workloads: map[string]*workloadResult{
		"w": {Attempted: 100, Failed: failed, Metrics: map[string]*metricSeries{}},
	}}
	for _, g := range absoluteGates { // a real result.json always has them
		if _, ok := metrics[g.name]; !ok {
			f.Workloads["w"].Metrics[g.name] = &metricSeries{Values: []float64{0, 0, 0}}
		}
	}
	for m, v := range metrics {
		f.Workloads["w"].Metrics[m] = &metricSeries{Values: v, Median: median(v)}
	}
	path := filepath.Join(dir, name)
	if err := writeJSON(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{
		"workloads": [{"name": "w", "why": "test"}],
		"end_to_end": [
			{"name": "rate", "unit": "ratio", "better": "higher", "bound": 0.10},
			{"name": "lat", "unit": "x", "better": "lower", "bound": 0.10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	noisy := func(m float64) []float64 { return []float64{m * 0.7, m * 0.9, m, m * 1.1, m * 1.3} }
	base := writeResult(t, dir, "base.json", map[string][]float64{"rate": steady(100), "lat": steady(10), "host.point_p99_x": steady(100)}, 0)

	for _, tc := range []struct {
		name    string
		metrics map[string][]float64
		failed  uint64
		status  int
		want    []string
	}{
		{"same", map[string][]float64{"rate": steady(100), "lat": steady(10)}, 0, 0, []string{"all ok"}},
		{"better", map[string][]float64{"rate": steady(150), "lat": steady(5)}, 0, 0, []string{"all ok"}},
		{"within", map[string][]float64{"rate": steady(93), "lat": steady(10.8)}, 0, 0, []string{"all ok"}},
		{"slower", map[string][]float64{"rate": steady(85), "lat": steady(10)}, 0, 1, []string{"rate", "worse"}},
		{"laggier", map[string][]float64{"rate": steady(100), "lat": steady(12)}, 0, 1, []string{"lat", "worse"}},
		{"noisy", map[string][]float64{"rate": noisy(100), "lat": steady(10)}, 0, 2, []string{"unresolved"}},
		{"missing", map[string][]float64{"rate": steady(100)}, 0, 1, []string{"missing"}},
		{"allocating", map[string][]float64{"rate": steady(100), "lat": steady(10), "allocs_per_op": steady(0.02)}, 0, 1, []string{"allocs_per_op", "worse (absolute)"}},
		{"allocation noise", map[string][]float64{"rate": steady(100), "lat": steady(10), "allocs_per_op": noisy(0.2)}, 0, 2, []string{"allocs_per_op", "unresolved (absolute)"}},
		{"few allocations", map[string][]float64{"rate": steady(100), "lat": steady(10), "allocs_per_op": steady(0.009)}, 0, 0, []string{"all ok"}},
		{"tail", map[string][]float64{"rate": steady(100), "lat": steady(10), "host.point_p99_x": steady(500)}, 0, 0, []string{"host.point_p99_x", "info", "all ok"}},
		{"incorrect", map[string][]float64{"rate": steady(100), "lat": steady(10)}, 3, 1, []string{"3 of 100 operations failed"}},
	} {
		other := writeResult(t, dir, tc.name+".json", tc.metrics, tc.failed)
		var out bytes.Buffer
		if status := compareFiles(&out, spec, base, other); status != tc.status {
			t.Errorf("%s: exit status %d, want %d\n%s", tc.name, status, tc.status, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, w, out.String())
			}
		}
	}
	var out bytes.Buffer
	if status := compareFiles(&out, spec, base, filepath.Join(dir, "absent.json")); status != 3 {
		t.Errorf("unreadable input: exit status %d, want 3", status)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// TestSpecMatchesCatalogue keeps BENCHMARK.json and the program in step
// and inside the contract's limits.
func TestSpecMatchesCatalogue(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(group string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", group, len(got), len(want))
		}
		for i, m := range got {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json says %s/%s/%s, the program %s/%s/%s",
					group, i, m.Name, m.Unit, m.Better, want[i].name, want[i].unit, better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: name %q or unit %q outside the contract's limits, or repeated", group, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %g of %s outside (0, 0.25]", group, m.Bound, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics: the contract allows 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
}

// TestSmoke runs all four workloads and the ladder end to end with tiny
// slices: every metric is present, every result verified.
func TestSmoke(t *testing.T) {
	p := smokeParams()
	for i := range workloads {
		wl := &workloads[i]
		traced := i == 0 // one climb of the ladder is enough
		rep := runOnce(wl, 1, p, traced)
		if !rep.line.Correct || rep.line.Failed != 0 || len(rep.errs) != 0 {
			t.Errorf("%s: failed=%d errs=%v", wl.name, rep.line.Failed, rep.errs)
		}
		if rep.line.Attempted < wl.keys/2 {
			t.Errorf("%s: attempted only %d operations", wl.name, rep.line.Attempted)
		}
		group := endToEnd
		if traced {
			group = perLayer
		}
		if len(rep.line.Metrics) != len(group) {
			t.Errorf("%s: %d metrics on the result line, want %d", wl.name, len(rep.line.Metrics), len(group))
		}
		for _, d := range group {
			if _, ok := rep.all[d.name]; !ok {
				t.Errorf("%s: metric %s not measured", wl.name, d.name)
			}
		}
		for _, d := range endToEnd {
			if v := rep.all[d.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want a positive number", wl.name, d.name, v)
			}
		}
		if s := rep.all["engine.fast_share"] + rep.all["engine.middle_share"] + rep.all["engine.fallback_share"]; math.Abs(s-1) > 1e-9 {
			t.Errorf("%s: path shares sum to %g", wl.name, s)
		}
		if b, err := json.Marshal(rep.line); err != nil || !json.Valid(b) {
			t.Errorf("%s: result line does not marshal: %v", wl.name, err)
		}
		if !traced {
			continue
		}
		names := map[string]bool{}
		for _, s := range rep.trace.Spans {
			names[s.Name] = true
			if s.Calls == 0 || s.TotalNS <= 0 || s.NS <= 0 {
				t.Errorf("span %s: calls=%d total_ns=%d ns=%g", s.Name, s.Calls, s.TotalNS, s.NS)
			}
		}
		for _, m := range ladderMetrics {
			if !m.pct && !names[strings.TrimSuffix(m.name, "_ns")] {
				t.Errorf("trace has no span for rung %s", m.name)
			}
		}
	}
}

// TestWorkloadsSeparateThePaths checks what the workloads were chosen
// for: ab-scan puts real load on the middle path, ab-update next to
// none. The slices are long enough to outlast the burst of middle-path
// operations that a single fallback at start-up causes.
func TestWorkloadsSeparateThePaths(t *testing.T) {
	p := params{slice: 100 * time.Millisecond, refSlice: 5 * time.Millisecond, rounds: 1, pairs: 3, setups: 1, setupRef: time.Millisecond}
	scan := runWorkload(findWorkload("ab-scan"), 1, p).metrics()["engine.middle_share"]
	update := runWorkload(findWorkload("ab-update"), 1, p).metrics()["engine.middle_share"]
	if scan <= 0.05 || update >= 0.01 {
		t.Errorf("engine.middle_share is %g on ab-scan and %g on ab-update, want > 0.05 and < 0.01", scan, update)
	}
}

func TestPlanKeepsSliceLength(t *testing.T) {
	for _, seconds := range []int{1, 5, 20, 60} {
		for _, traced := range []bool{false, true} {
			p := plan(seconds, traced)
			if p.slice != sliceLen || p.rounds < 1 || p.pairs < 1 {
				t.Errorf("plan(%d,%v) = %+v", seconds, traced, p)
			}
			budget := time.Duration(seconds) * time.Second
			if spent := time.Duration(p.rounds*p.pairs) * (p.slice + p.refSlice); spent > budget {
				t.Errorf("plan(%d,%v) measures %v of tree and reference slices", seconds, traced, spent)
			}
			if ladder := time.Duration(p.ladderReps*len(ladderRungs)) * p.ladderSlice; traced && (ladder == 0 || ladder > budget/2) {
				t.Errorf("plan(%d,true) spends %v on the ladder", seconds, ladder)
			}
		}
	}
	if p := plan(20, false); p.rounds != 6 || p.pairs != 11 {
		t.Errorf("plan(20) = %d rounds x %d pairs, want 6 x 11", p.rounds, p.pairs)
	}
}
