package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// roundsFor sizes a run: enough rounds of roundSeconds each to fill
// seconds on the reference host, never fewer than minRounds. The count
// depends only on the flags, so every run of a seed replays the same
// operations however fast the code under test is.
func roundsFor(seconds int, roundSeconds float64, minRounds int) int {
	n := int(math.Round(float64(seconds) / roundSeconds))
	if n < minRounds {
		n = minRounds
	}
	return n
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s VmHWM: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}

// allocs is a MemStats reading of the heap allocation counters.
type allocs struct{ bytes, objects uint64 }

func readAllocs() allocs {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocs{m.TotalAlloc, m.Mallocs}
}

func (a allocs) since(b allocs) allocs { return allocs{a.bytes - b.bytes, a.objects - b.objects} }

func (a allocs) plus(b allocs) allocs { return allocs{a.bytes + b.bytes, a.objects + b.objects} }

// ratio is part/whole, 0 when whole is 0.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// gcSample reads the Go runtime's GC cycle and CPU counters.
type gcSample struct {
	cycles        uint64
	gcCPU, allCPU float64
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcSample{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// report prints the human-readable summary that precedes the result
// line: every end-to-end metric (on a traced run too, which is how the
// tracing overhead shows) and, on a traced run, every layer metric.
func report(w io.Writer, name string, cfg config, st *runStats, e2e map[string]metric) {
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed %d, %s: %d set-ups, %d rounds of %d ops, latency_ms.tail = p%g over %d samples\n",
		name, cfg.seed, mode, len(st.setups), len(st.rounds), st.opsPerRound, st.tailPct, len(st.latencies))
	fmt.Fprintf(w, "  round ops/s:")
	for _, d := range st.rounds {
		fmt.Fprintf(w, " %.2f", float64(st.opsPerRound)/d.Seconds())
	}
	fmt.Fprintln(w)
	printMetrics(w, "end to end", e2e)
	if cfg.traced {
		printMetrics(w, "per layer", st.layers)
	}
	for _, v := range st.violations {
		fmt.Fprintln(w, "  VIOLATION:", v)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "    %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
