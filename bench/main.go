// Command bench is the repository's benchmark: four closed-loop
// workloads against the public htmtree API, each timed in units of a
// frozen benchmark-owned reference kernel that runs in slices paired
// with the tree's, plus a traced single-worker layer ladder. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
//	go run ./bench --workload ab-update --seed 1 --seconds 20 --trace 0
//	go run ./bench --runs 10 --out /tmp/a         # a set: every workload, 10 seeds
//	go run ./bench --compare /tmp/a/result.json /tmp/b/result.json
//	go run ./bench --smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		wlName  = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed of every generated key stream")
		seconds = flag.Int("seconds", 20, "seconds one run measures")
		trace   = flag.Int("trace", 0, "1: traced run (counters and the layer ladder); 0: end-to-end metrics only")
		runs    = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...; the workloads' runs are interleaved")
		outDir  = flag.String("out", "bench/out", "directory for result.json and trace.json")
		smoke   = flag.Bool("smoke", false, "run every workload and the ladder with tiny slices")
		compare = flag.Bool("compare", false, "compare two result.json files: bench --compare a.json b.json")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark contract --compare takes bounds from")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench --compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fatalf("want --seconds >= 1, --runs >= 1, --trace 0 or 1")
	}

	selected := workloads
	if *wlName != "all" {
		wl := findWorkload(*wlName)
		if wl == nil {
			fatalf("unknown workload %q", *wlName)
		}
		selected = []workload{*wl}
	}
	traced := *trace == 1
	p := plan(*seconds, traced)
	if *smoke {
		p, traced = smokeParams(), true
	}

	start := time.Now()
	file := newResultFile(*seed, *seconds, traced, *runs, p)
	e := file.Env
	fmt.Printf("env: commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d seconds=%d traced=%v runs=%d slice=%gms rounds=%d pairs/round=%d\n",
		e.Commit, e.Go, e.GOMAXPROCS, e.NProc, e.CPU, e.Seed, e.Seconds, e.Traced, e.Runs, e.SliceMS, e.Rounds, e.Pairs)
	failed := false
	var lastTrace *traceFile
	for run := 0; run < *runs; run++ {
		for i := range selected {
			wl := &selected[i]
			s := *seed + uint64(run)
			t0 := time.Now()
			rep := runOnce(wl, s, p, traced)
			rep.print(os.Stdout, wl, s, time.Since(t0))
			file.add(wl.name, s, rep)
			if rep.trace != nil {
				lastTrace = rep.trace
				lastTrace.Env = file.Env
				lastTrace.Env.Seed = s
			}
			failed = failed || !rep.line.Correct
			// The contract's last line of a run: one JSON object.
			line, err := json.Marshal(rep.line)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(string(line))
		}
	}
	file.Env.WallS = time.Since(start).Seconds()

	if err := writeJSON(filepath.Join(*outDir, "result.json"), file); err != nil {
		fatalf("%v", err)
	}
	if lastTrace != nil {
		if err := writeJSON(filepath.Join(*outDir, "trace.json"), lastTrace); err != nil {
			fatalf("%v", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

// resultLine is the object the contract wants as the last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload, ready to print.
type report struct {
	line  resultLine
	all   map[string]float64 // every metric measured, both groups
	trace *traceFile
	errs  []string
}

// traceFile is trace.json: the ladder's spans, kept in memory during the
// run and written at exit.
type traceFile struct {
	Env   envStamp   `json:"env"`
	Chain chainCheck `json:"chain"`
	Spans []span     `json:"spans"`
}

// runOnce measures one workload once; a traced run climbs the ladder
// afterwards.
func runOnce(wl *workload, seed uint64, p params, traced bool) *report {
	res := runWorkload(wl, seed, p)
	rep := &report{all: res.metrics(), errs: res.errs}
	tl := res.tl
	group := endToEnd
	if traced {
		group = perLayer
		lad := runLadder(seed, p)
		for k, v := range lad.metrics {
			rep.all[k] = v
		}
		tl.add(lad.tl)
		rep.errs = append(rep.errs, lad.errs...)
		rep.trace = &traceFile{Chain: lad.chain, Spans: lad.spans}
	}
	if len(rep.errs) > 0 && tl.failed == 0 {
		tl.failed = 1 // a failed structural check is a failed operation
	}
	if tl.attempted == 0 {
		tl.attempted = 1
	}
	rep.line = resultLine{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range group {
		rep.line.Metrics[d.name] = metricValue{rep.all[d.name], d.unit}
	}
	return rep
}

// print writes every metric by name and unit.
func (rep *report) print(w *os.File, wl *workload, seed uint64, wall time.Duration) {
	fmt.Fprintf(w, "== %s  seed=%d  attempted=%d failed=%d  wall=%.1fs\n", wl.name, seed, rep.line.Attempted, rep.line.Failed, wall.Seconds())
	for _, g := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range g {
			if v, ok := rep.all[d.name]; ok {
				fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	if rep.trace != nil {
		c := rep.trace.Chain
		fmt.Fprintf(w, "ladder chain: self times sum to %.1f ns, top rung %.1f ns (%+.1f %%)\n", c.SumSelfNS, c.TopNS, c.DiffPct)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
}

// envStamp says where and how a result was produced.
type envStamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds,omitempty"`
	Traced     bool    `json:"traced"`
	Runs       int     `json:"runs,omitempty"`
	SliceMS    float64 `json:"slice_ms,omitempty"`
	Rounds     int     `json:"rounds,omitempty"`
	Pairs      int     `json:"pairs_per_round,omitempty"`
	WallS      float64 `json:"wall_s,omitempty"`
}

func stamp(seed uint64) envStamp {
	e := envStamp{
		Commit: "unknown", Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Seed: seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resultFile is result.json: per workload and metric, the value of every
// run with its median and quartiles. --compare reads two of them.
type resultFile struct {
	Schema    int                        `json:"schema"`
	Env       envStamp                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Seeds     []uint64                 `json:"seeds"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]*metricSeries `json:"metrics"`
}

type metricSeries struct {
	Unit   string    `json:"unit"`
	Group  string    `json:"group"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newResultFile(seed uint64, seconds int, traced bool, runs int, p params) *resultFile {
	f := &resultFile{Schema: 1, Env: stamp(seed), Workloads: map[string]*workloadResult{}}
	f.Env.Seconds, f.Env.Traced, f.Env.Runs = seconds, traced, runs
	f.Env.SliceMS = float64(p.slice) / float64(time.Millisecond)
	f.Env.Rounds, f.Env.Pairs = p.rounds, p.pairs
	return f
}

func (f *resultFile) add(name string, seed uint64, rep *report) {
	w := f.Workloads[name]
	if w == nil {
		w = &workloadResult{Metrics: map[string]*metricSeries{}}
		f.Workloads[name] = w
	}
	w.Seeds = append(w.Seeds, seed)
	w.Attempted += rep.line.Attempted
	w.Failed += rep.line.Failed
	for group, defs := range map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer} {
		for _, d := range defs {
			v, ok := rep.all[d.name]
			if !ok {
				continue
			}
			s := w.Metrics[d.name]
			if s == nil {
				s = &metricSeries{Unit: d.unit, Group: group}
				w.Metrics[d.name] = s
			}
			s.Values = append(s.Values, v)
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
