// Command perfbench is the repository's end-to-end benchmark. Each
// process runs one closed-loop workload with a single client goroutine,
// checks every answer against a known answer that does not come from
// the code under test, and prints one JSON result as its last line of
// standard output:
//
//   - table1: cold CEGAR checks of the Table-1 profiles' clusters, one
//     fresh cegar.Checker per cluster, as bench.RunBenchmark runs them.
//   - fig6: gcc-class counterexamples of tens of thousands of basic
//     blocks, sliced and decided on one default core.Slicer.
//   - slicerd: the shipped daemon over one loopback keep-alive
//     connection, mostly repeating a hot set of cluster programs with
//     a fixed share of programs it has never seen.
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload table1 --seed 0 --seconds 25 --trace 0
//
// A run replays a fixed sequence of equal rounds chosen by --seed, and
// --seconds sets how many rounds that sequence holds (sized on a
// 2-CPU host to take about that long), so a run never fills a time
// window: two runs of one seed execute the same operations. With
// --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by timing calls into each
// module's exported functions from outside (spans go to -spans-dir).
// METRICS.md records why each metric was chosen and how the layers map
// onto the end-to-end numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one run's parameters.
type config struct {
	seed    int64
	seconds int
	traced  bool
	slicerd string // daemon binary, slicerd workload only
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runStats is what a workload hands back: its timings, its known-answer
// tally and, on a traced run, its per-layer metrics.
type runStats struct {
	setups      []time.Duration // each repeated set-up
	rounds      []time.Duration // wall time of each round
	opsPerRound int
	latencies   []time.Duration // every op of every round
	tailPct     float64         // the percentile reported as latency_ms.tail
	attempted   int
	ok          int
	ratios      []float64 // slice blocks / trace blocks, in percent
	peakRSSMB   float64
	layers      map[string]metric // traced runs only
	violations  []string          // failed accounting or determinism checks
	spans       *tracer
}

var workloads = map[string]func(config) (*runStats, error){
	"table1":  runTable1,
	"fig6":    runFig6,
	"slicerd": runSlicerd,
}

func main() {
	name := flag.String("workload", "", "workload to run: table1, fig6 or slicerd")
	seed := flag.Int64("seed", 0, "workload seed; 0 reproduces the paper profiles")
	seconds := flag.Int("seconds", 25, "nominal run length in seconds; sets the number of rounds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	slicerd := flag.String("slicerd", "", "slicerd binary (slicerd workload)")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's span file (empty: not written)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload table1|fig6|slicerd --seed n>=0 --seconds s>=1 --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, slicerd: *slicerd}
	st, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.traced && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := st.spans.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	e2e, err := endToEnd(st)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(os.Stdout, *name, cfg, st, e2e)

	res := result{
		Correct:   st.attempted > 0 && st.ok == st.attempted && len(st.violations) == 0,
		Attempted: st.attempted,
		Failed:    st.attempted - st.ok,
		Metrics:   e2e,
	}
	if cfg.traced {
		res.Metrics = st.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd derives the end-to-end metrics from a run. The traced run
// computes them too: set against an untraced run of the same seed they
// give the tracing overhead.
func endToEnd(st *runStats) (map[string]metric, error) {
	if len(st.latencies) == 0 || len(st.rounds) == 0 || len(st.setups) == 0 {
		return nil, fmt.Errorf("run measured nothing")
	}
	// The tail percentile must keep at least ten samples beyond it.
	if beyond := float64(len(st.latencies)) * (1 - st.tailPct/100); beyond < 10 {
		return nil, fmt.Errorf("p%g over %d samples has only %.1f beyond it", st.tailPct, len(st.latencies), beyond)
	}
	ms := make([]float64, len(st.latencies))
	for i, d := range st.latencies {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	rates := make([]float64, len(st.rounds))
	for i, d := range st.rounds {
		rates[i] = float64(st.opsPerRound) / d.Seconds()
	}
	setups := make([]float64, len(st.setups))
	for i, d := range st.setups {
		setups[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {median(rates), "1/s"},
		"latency_ms.p50":  {percentile(ms, 50), "ms"},
		"latency_ms.tail": {percentile(ms, st.tailPct), "ms"},
		"ok_share":        {float64(st.ok) / float64(st.attempted), "ratio"},
		"slice_ratio_pct": {mean(st.ratios), "%"},
		"peak_rss_mb":     {st.peakRSSMB, "MB"},
	}, nil
}
