package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json --compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload x metric pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
	verdictInfo       = "info" // shown, not judged
)

// absoluteGates are the two metrics ISSUE 12 bounds absolutely. They are
// 0 when all is well, which BENCHMARK.json's relative bounds cannot
// express, so they are per-layer metrics there and --compare applies the
// issue's bounds itself: b is worse when its median exceeds a's by more
// than the bound, unresolved when either side's interquartile distance is
// wider than the bound.
var absoluteGates = []struct {
	name  string
	bound float64
}{
	{"allocs_per_op", 0.01},
	{"failed_share", 0},
}

// shownUngated are the latency metrics the issue's demotion rule moved
// out of the gate (README.md, "Bounds"). --compare prints them with
// their spread so a reader sees what moved, and gives no verdict.
var shownUngated = []string{"host.point_p50_x", "host.point_p99_x", "host.w1_p50_x", "host.w1_p99_x"}

// judge compares b against a for one metric: worse when b's median is
// worse than a's by more than bound (a share of a's median), unresolved
// when either side's own interquartile spread is wider than the bound —
// then the runs cannot tell a regression of that size from noise.
func judge(a, b *metricSeries, better string, bound float64) (verdict string, ma, mb, diff, spr float64) {
	if a == nil || b == nil || len(a.Values) == 0 || len(b.Values) == 0 {
		return verdictMissing, 0, 0, 0, 0
	}
	ma, mb = median(a.Values), median(b.Values)
	if ma != 0 {
		diff = (mb - ma) / ma
		if better == "higher" {
			diff = -diff
		}
	} else if mb != 0 {
		diff = 1
	}
	spr = spread(a.Values)
	if s := spread(b.Values); s > spr {
		spr = s
	}
	verdict = verdictOK
	switch {
	case spr > bound:
		verdict = verdictUnresolved
	case diff > bound:
		verdict = verdictWorse
	}
	return verdict, ma, mb, diff, spr
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, the bound and the verdict; then the two
// absolutely bounded metrics and the ungated latencies. It returns the
// exit status: 0 all ok, 1 something is worse or missing, 2 nothing
// worse but something unresolved, 3 unreadable input.
func compareFiles(w io.Writer, specPath, pathA, pathB string) int {
	var spec benchSpec
	var a, b resultFile
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(w, "bench: %v\n", err)
			return 3
		}
	}
	fmt.Fprintf(w, "a: %s  commit=%s seed=%d runs=%d\nb: %s  commit=%s seed=%d runs=%d\n",
		pathA, a.Env.Commit, a.Env.Seed, a.Env.Runs, pathB, b.Env.Commit, b.Env.Seed, b.Env.Runs)
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse%", "spread%", "bound%", "verdict")
	worse, unresolved := 0, 0
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		series := func(r *workloadResult, name string) *metricSeries {
			if r == nil {
				return nil
			}
			return r.Metrics[name]
		}
		for _, m := range spec.EndToEnd {
			v, ma, mb, diff, spr := judge(series(wa, m.Name), series(wb, m.Name), m.Better, m.Bound)
			fmt.Fprintf(w, "%-16s %-18s %12.5g %12.5g %+8.1f %7.1f %7.1f  %s\n",
				wl.Name, m.Name, ma, mb, diff*100, spr*100, m.Bound*100, v)
			switch v {
			case verdictWorse, verdictMissing:
				worse++
			case verdictUnresolved:
				unresolved++
			}
		}
		for _, g := range absoluteGates {
			sa, sb := series(wa, g.name), series(wb, g.name)
			if sa == nil || sb == nil || len(sa.Values) == 0 || len(sb.Values) == 0 {
				fmt.Fprintf(w, "%-16s %-18s %s\n", wl.Name, g.name, verdictMissing)
				worse++
				continue
			}
			ma, mb := median(sa.Values), median(sb.Values)
			spr := 0.0 // the wider interquartile distance, absolute like the bound
			for _, s := range []*metricSeries{sa, sb} {
				if q1, q3 := quartiles(s.Values); q3-q1 > spr {
					spr = q3 - q1
				}
			}
			v := verdictOK
			switch {
			case spr > g.bound:
				v = verdictUnresolved
				unresolved++
			case mb > ma+g.bound:
				v = verdictWorse
				worse++
			}
			fmt.Fprintf(w, "%-16s %-18s %12.5g %12.5g %+8.4f %7.4f %7.2f  %s (absolute)\n", wl.Name, g.name, ma, mb, mb-ma, spr, g.bound, v)
		}
		for _, name := range shownUngated {
			if _, ma, mb, diff, spr := judge(series(wa, name), series(wb, name), "lower", 0); ma != 0 {
				fmt.Fprintf(w, "%-16s %-18s %12.5g %12.5g %+8.1f %7.1f %7s  %s\n", wl.Name, name, ma, mb, diff*100, spr*100, "", verdictInfo)
			}
		}
		for name, r := range map[string]*workloadResult{"a": wa, "b": wb} {
			if r != nil && r.Failed > 0 {
				fmt.Fprintf(w, "%-16s %s: %d of %d operations failed\n", wl.Name, name, r.Failed, r.Attempted)
				worse++
			}
		}
	}
	switch {
	case worse > 0:
		fmt.Fprintf(w, "%d worse or missing, %d unresolved\n", worse, unresolved)
		return 1
	case unresolved > 0:
		fmt.Fprintf(w, "none worse, %d unresolved\n", unresolved)
		return 2
	}
	fmt.Fprintln(w, "all ok")
	return 0
}
