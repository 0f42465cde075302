// Command benchdiff gates performance regressions between the two
// newest BENCH_PR*.json artifacts (cmd/benchjson). It exits nonzero
// when any tracked deterministic metric regresses by more than 20%,
// and — independently of whether a predecessor exists — when the new
// artifact's gcc-class summary sweep stops being sublinear: the
// walked-edge count of the summarized slicer must grow by less than
// 1.8x per trace-length doubling, and the streamed reader's peak
// resident frames must stay at the bounded window.
//
// Deterministic counters (solver calls, early-stop checks, oracle
// pairs and violations, walked edges) are compared unconditionally —
// they cannot drift with machine load. Wall-time metrics are compared
// only when both artifacts carry the same host fingerprint AND a CPU
// calibration (cmd/benchjson's calibration_ms), which normalizes for
// VM instances of the same class running at different effective clock
// speeds; older artifacts missing either are skipped with a note
// rather than producing noise. It also enforces the fresh artifact's
// own slicerd warm-reuse invariants (service_warm: the warm round must
// hit the program cache, shared solver cache, and post memo, and beat
// the cold round — same-host by construction), its snapshot-restart
// invariants (snapshot_restart: a restored server's first request must
// reuse every snapshot constituent, drop nothing, and beat a cold
// first request), its batched-solving invariants (portfolio.batch:
// zero verdict divergences, batched solving at least 1.5x faster than
// serial), and its concurrency-twin invariants (concurrency: the
// cross-thread walk visits at most 1.5x the serialized twin's edges,
// on a trace with >= 2 threads and racy edges — docs/CONCURRENCY.md).
// The early-unsat-stop speedup ratio carries its own tighter
// gate (-max-speedup-drop): a slide from 8.0x to 6.6x stays inside the
// generic 20% window but still fails the build.
//
// Usage:
//
//	benchdiff [-dir .] [-old f] [-new f] [-max-regress 0.20] [-max-growth 1.8]
//	          [-max-speedup-drop 0.15] [-min-batch-ratio 1.5] [-max-walk-ratio 1.5]
//
// `make bench-diff` runs it over the checked-in artifacts; `make
// check` includes it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// artifact is the subset of cmd/benchjson's output that benchdiff
// tracks. Fields absent from older artifacts unmarshal to zero values
// and are skipped.
type artifact struct {
	Host             string  `json:"host"`
	CalibrationMS    float64 `json:"calibration_ms"`
	SuiteWallMS      float64 `json:"suite_wall_ms"`
	TotalSolverCalls int64   `json:"total_solver_calls"`
	EarlyUnsatStop   *struct {
		SolverChecks  int     `json:"solver_checks"`
		IncrementalMS float64 `json:"incremental_ms"`
		ScratchMS     float64 `json:"scratch_ms"`
		Speedup       float64 `json:"speedup"`
	} `json:"early_unsat_stop"`
	SummarySweep []struct {
		TraceOps         int     `json:"trace_ops"`
		SliceEdges       int     `json:"slice_edges"`
		BaselineWalked   int     `json:"baseline_walked"`
		SummarizedWalked int     `json:"summarized_walked"`
		SummarizedMS     float64 `json:"summarized_ms"`
		StreamPeakFrames int     `json:"stream_peak_frames"`
	} `json:"summary_sweep"`
	Oracle *struct {
		Pairs      int `json:"pairs"`
		Violations int `json:"violations"`
	} `json:"oracle"`
	ServiceWarm *struct {
		ColdMS          float64 `json:"cold_ms"`
		WarmMS          float64 `json:"warm_ms"`
		ProgramCacheHit bool    `json:"program_cache_hit"`
		SolverCacheHits int64   `json:"solver_cache_hits"`
		PostMemoHits    int64   `json:"post_memo_hits"`
	} `json:"service_warm"`
	SnapshotRestart *struct {
		ColdFirstMS       float64 `json:"cold_first_ms"`
		WarmFirstMS       float64 `json:"warm_first_ms"`
		RestoredPrograms  int64   `json:"restored_programs"`
		RestoredSummaries int64   `json:"restored_summaries"`
		RestoredVerdicts  int64   `json:"restored_verdicts"`
		DroppedRecords    int64   `json:"dropped_records"`
		ProgramCacheHit   bool    `json:"program_cache_hit"`
		SummaryHits       int64   `json:"summary_hits"`
		SolverCacheHits   int64   `json:"solver_cache_hits"`
	} `json:"snapshot_restart"`
	Portfolio *struct {
		Batch *struct {
			Queries     int     `json:"queries"`
			Divergences int     `json:"divergences"`
			SerialMS    float64 `json:"serial_ms"`
			BatchedMS   float64 `json:"batched_ms"`
			Ratio       float64 `json:"ratio"`
		} `json:"batch"`
	} `json:"portfolio"`
	Concurrency *struct {
		ThreadedEvents int     `json:"threaded_events"`
		SerialEvents   int     `json:"serial_events"`
		ThreadedWalked int     `json:"threaded_walked"`
		SerialWalked   int     `json:"serial_walked"`
		WalkRatio      float64 `json:"walk_ratio"`
		Threads        int     `json:"threads"`
		RacyEdges      int     `json:"racy_edges"`
	} `json:"concurrency"`
}

// streamWindowFrames mirrors the PathReader block cache bound
// (cfa: 4 blocks x 1024 edges).
const streamWindowFrames = 4096

var failures int

func failf(format string, args ...any) {
	fmt.Printf("FAIL: "+format+"\n", args...)
	failures++
}

func main() {
	dir := flag.String("dir", ".", "directory to scan for BENCH_PR*.json")
	oldPath := flag.String("old", "", "baseline artifact (default: second-newest BENCH_PR*.json)")
	newPath := flag.String("new", "", "fresh artifact (default: newest BENCH_PR*.json)")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed relative regression per tracked metric")
	maxGrowth := flag.Float64("max-growth", 1.8, "allowed summarized walked-edge growth per trace doubling")
	maxSpeedupDrop := flag.Float64("max-speedup-drop", 0.15, "allowed relative drop of the early-unsat-stop speedup ratio")
	minBatchRatio := flag.Float64("min-batch-ratio", 1.5, "required batched-vs-serial wall advantage in the fresh artifact")
	maxWalkRatio := flag.Float64("max-walk-ratio", 1.5, "allowed threaded-vs-serialized walked-edge ratio in the fresh artifact")
	flag.Parse()

	if *newPath == "" || *oldPath == "" {
		found := findArtifacts(*dir)
		if *newPath == "" {
			if len(found) == 0 {
				fatal(fmt.Errorf("no BENCH_PR*.json artifacts in %s", *dir))
			}
			*newPath = found[len(found)-1]
		}
		if *oldPath == "" && len(found) > 1 {
			*oldPath = found[len(found)-2]
		}
	}

	fresh := load(*newPath)
	checkSublinear(*newPath, fresh, *maxGrowth)
	checkServiceWarm(*newPath, fresh)
	checkSnapshotRestart(*newPath, fresh)
	checkBatch(*newPath, fresh, *minBatchRatio)
	checkConcurrency(*newPath, fresh, *maxWalkRatio)

	if *oldPath == "" {
		fmt.Printf("note: no predecessor artifact, skipping regression comparison\n")
	} else {
		base := load(*oldPath)
		fmt.Printf("comparing %s (baseline) -> %s\n", *oldPath, *newPath)
		compare(base, fresh, *maxRegress, *maxSpeedupDrop)
	}

	if failures > 0 {
		fmt.Printf("benchdiff: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}

// findArtifacts returns the BENCH_PR<n>.json files in dir sorted by n.
func findArtifacts(dir string) []string {
	re := regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal(err)
	}
	type numbered struct {
		n    int
		path string
	}
	var found []numbered
	for _, e := range entries {
		m := re.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		found = append(found, numbered{n, filepath.Join(dir, e.Name())})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	paths := make([]string, len(found))
	for i, f := range found {
		paths[i] = f.path
	}
	return paths
}

func load(path string) *artifact {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var a artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return &a
}

// checkSublinear enforces the fresh artifact's own invariants: the
// summary sweep exists, its points double the trace length, the
// summarized walked-edge count grows sublinearly per doubling, and
// streaming never held more than the bounded window resident.
func checkSublinear(path string, a *artifact, maxGrowth float64) {
	if len(a.SummarySweep) < 3 {
		failf("%s: summary_sweep has %d points, want >= 3 (one per trace doubling)", path, len(a.SummarySweep))
		return
	}
	for i, r := range a.SummarySweep {
		if r.StreamPeakFrames > streamWindowFrames {
			failf("%s: sweep point %d held %d frames resident, window is %d",
				path, i, r.StreamPeakFrames, streamWindowFrames)
		}
		if i == 0 {
			continue
		}
		prev := a.SummarySweep[i-1]
		opsRatio := float64(r.TraceOps) / float64(prev.TraceOps)
		if opsRatio < 1.7 || opsRatio > 2.3 {
			failf("%s: sweep points %d->%d scale trace ops by %.2fx, want a doubling", path, i-1, i, opsRatio)
			continue
		}
		growth := float64(r.SummarizedWalked) / float64(prev.SummarizedWalked)
		baseGrowth := float64(r.BaselineWalked) / float64(prev.BaselineWalked)
		fmt.Printf("sweep %6d -> %6d ops: summarized walked %5d -> %5d (%.2fx per doubling, plain %.2fx)\n",
			prev.TraceOps, r.TraceOps, prev.SummarizedWalked, r.SummarizedWalked, growth, baseGrowth)
		if growth >= maxGrowth {
			failf("%s: summarized walked edges grew %.2fx per doubling (>= %.2f) — summaries no longer sublinear",
				path, growth, maxGrowth)
		}
	}
	if o := a.Oracle; o != nil && o.Violations != 0 {
		failf("%s: artifact recorded %d oracle violations", path, o.Violations)
	}
}

// checkServiceWarm enforces the fresh artifact's slicerd reuse
// invariants. Cold and warm rounds come from one benchjson run on one
// machine, so the wall-time comparison needs no host gating: a warm
// request that reuses no resident state, or is no faster than the cold
// one, means the resident daemon stopped paying for itself.
func checkServiceWarm(path string, a *artifact) {
	sw := a.ServiceWarm
	if sw == nil {
		fmt.Printf("note: %s has no service_warm section, skipping\n", path)
		return
	}
	if !sw.ProgramCacheHit {
		failf("%s: warm service request missed the program cache", path)
	}
	if sw.SolverCacheHits == 0 {
		failf("%s: warm service request had no shared solver-cache hits", path)
	}
	if sw.PostMemoHits == 0 {
		failf("%s: warm service check had no abstract-post memo hits", path)
	}
	if sw.WarmMS >= sw.ColdMS {
		failf("%s: warm service round (%.2fms) not faster than cold (%.2fms)", path, sw.WarmMS, sw.ColdMS)
	} else {
		fmt.Printf("service warm: cold %.1fms -> warm %.1fms (%.1fx), solver-cache %d, post-memo %d\n",
			sw.ColdMS, sw.WarmMS, sw.ColdMS/sw.WarmMS, sw.SolverCacheHits, sw.PostMemoHits)
	}
}

// checkSnapshotRestart enforces the fresh artifact's cross-restart
// invariants: a clean snapshot restores every constituent (programs,
// frame summaries, solver verdicts) without dropping records, and the
// restored server's first request reuses all of it and beats a cold
// server's first request — otherwise warm-state snapshots stopped
// paying for themselves.
func checkSnapshotRestart(path string, a *artifact) {
	sr := a.SnapshotRestart
	if sr == nil {
		fmt.Printf("note: %s has no snapshot_restart section, skipping\n", path)
		return
	}
	if sr.RestoredPrograms == 0 || sr.RestoredSummaries == 0 || sr.RestoredVerdicts == 0 {
		failf("%s: snapshot restore incomplete (%d programs, %d summaries, %d verdicts)",
			path, sr.RestoredPrograms, sr.RestoredSummaries, sr.RestoredVerdicts)
	}
	if sr.DroppedRecords != 0 {
		failf("%s: clean snapshot dropped %d records on restore", path, sr.DroppedRecords)
	}
	if !sr.ProgramCacheHit {
		failf("%s: restored server's first request missed the program cache", path)
	}
	if sr.SummaryHits == 0 {
		failf("%s: restored server's first request replayed no restored summaries", path)
	}
	if sr.SolverCacheHits == 0 {
		failf("%s: restored server's first request hit no restored solver verdicts", path)
	}
	if sr.WarmFirstMS >= sr.ColdFirstMS {
		failf("%s: restored first request (%.2fms) not faster than cold (%.2fms)",
			path, sr.WarmFirstMS, sr.ColdFirstMS)
	} else {
		fmt.Printf("snapshot restart: cold first %.1fms -> restored first %.1fms (%.1fx), %d/%d/%d restored\n",
			sr.ColdFirstMS, sr.WarmFirstMS, sr.ColdFirstMS/sr.WarmFirstMS,
			sr.RestoredPrograms, sr.RestoredSummaries, sr.RestoredVerdicts)
	}
}

// checkBatch enforces the fresh artifact's own batched-solving
// invariants (the cold/warm pattern again: both sides of the
// comparison come from one benchjson run on one machine, so no host
// gating is needed). Any verdict divergence is a soundness failure; a
// batch ratio under minBatchRatio means prefix sharing stopped paying.
func checkBatch(path string, a *artifact, minBatchRatio float64) {
	p := a.Portfolio
	if p == nil {
		fmt.Printf("note: %s has no portfolio section, skipping\n", path)
		return
	}
	b := p.Batch
	if b == nil {
		failf("%s: portfolio section has no batch comparison", path)
		return
	}
	if b.Divergences != 0 {
		failf("%s: batched route diverged from serial on %d/%d queries", path, b.Divergences, b.Queries)
	}
	if b.Ratio < minBatchRatio {
		failf("%s: batched route only %.2fx faster than serial (< %.2fx) — prefix sharing stopped paying",
			path, b.Ratio, minBatchRatio)
	} else {
		fmt.Printf("batch: serial %.1fms -> batched %.1fms (%.2fx over %d queries)\n",
			b.SerialMS, b.BatchedMS, b.Ratio, b.Queries)
	}
}

// checkConcurrency enforces the fresh artifact's concurrency-twin
// invariants (docs/CONCURRENCY.md): the recorded interleaving is
// genuinely concurrent (>= 2 threads, racy edges present), and the
// cross-thread walk visits at most maxWalkRatio times the edges of
// the serialized twin's walk — above that, slicing over racy edges
// stopped being a bounded-overhead extension of the sequential walk.
func checkConcurrency(path string, a *artifact, maxWalkRatio float64) {
	c := a.Concurrency
	if c == nil {
		fmt.Printf("note: %s has no concurrency section, skipping\n", path)
		return
	}
	if c.Threads < 2 {
		failf("%s: concurrency twin ran %d threads — the comparison is vacuous", path, c.Threads)
	}
	if c.RacyEdges == 0 {
		failf("%s: concurrency twin produced no racy edges — the twin is not concurrent", path)
	}
	if c.SerialWalked == 0 || c.ThreadedWalked == 0 {
		failf("%s: degenerate concurrency walk counts (threaded %d, serial %d)",
			path, c.ThreadedWalked, c.SerialWalked)
		return
	}
	if c.WalkRatio > maxWalkRatio {
		failf("%s: cross-thread slicing walked %.2fx the serialized twin's edges (%d vs %d, allowed %.2fx)",
			path, c.WalkRatio, c.ThreadedWalked, c.SerialWalked, maxWalkRatio)
	} else {
		fmt.Printf("concurrency: %d threads, %d racy edges, walked %d vs serialized %d (%.2fx <= %.2fx)\n",
			c.Threads, c.RacyEdges, c.ThreadedWalked, c.SerialWalked, c.WalkRatio, maxWalkRatio)
	}
}

// compare gates the fresh artifact's tracked metrics against the
// baseline's. direction +1 means higher is worse, -1 lower is worse.
func compare(base, fresh *artifact, maxRegress, maxSpeedupDrop float64) {
	gate := func(name string, old, new float64, direction int) {
		if old == 0 {
			fmt.Printf("note: %s absent from baseline, skipping\n", name)
			return
		}
		rel := (new - old) / old * float64(direction)
		if rel > maxRegress {
			failf("%s regressed %.0f%%: %v -> %v", name, rel*100, old, new)
			return
		}
		fmt.Printf("ok: %s %v -> %v (%+.0f%%)\n", name, old, new, (new-old)/old*100)
	}

	gate("total_solver_calls", float64(base.TotalSolverCalls), float64(fresh.TotalSolverCalls), +1)
	if base.EarlyUnsatStop != nil && fresh.EarlyUnsatStop != nil {
		gate("early_unsat_stop.solver_checks",
			float64(base.EarlyUnsatStop.SolverChecks), float64(fresh.EarlyUnsatStop.SolverChecks), +1)
	}
	if base.Oracle != nil && fresh.Oracle != nil {
		gate("oracle.pairs", float64(base.Oracle.Pairs), float64(fresh.Oracle.Pairs), -1)
	}
	if len(base.SummarySweep) > 0 && len(fresh.SummarySweep) > 0 {
		ob, nb := base.SummarySweep[len(base.SummarySweep)-1], fresh.SummarySweep[len(fresh.SummarySweep)-1]
		if ob.TraceOps == nb.TraceOps {
			gate("summary_sweep.summarized_walked", float64(ob.SummarizedWalked), float64(nb.SummarizedWalked), +1)
			gate("summary_sweep.slice_edges", float64(ob.SliceEdges), float64(nb.SliceEdges), +1)
		} else {
			fmt.Printf("note: sweep trace sizes differ (%d vs %d ops), skipping walked-edge comparison\n",
				ob.TraceOps, nb.TraceOps)
		}
	}

	// Wall-time metrics: only meaningful on the same machine class,
	// and — because identical fingerprints can still mean VM instances
	// with different effective clock speeds — only when both artifacts
	// carry a CPU calibration to normalize by. The fresh artifact's
	// timings are divided by the calibration ratio before gating, so a
	// uniformly slower machine does not read as a code regression.
	if base.Host == "" || base.Host != fresh.Host {
		fmt.Printf("note: host fingerprints differ (%q vs %q), skipping wall-time comparisons\n",
			base.Host, fresh.Host)
		return
	}
	if base.CalibrationMS == 0 || fresh.CalibrationMS == 0 {
		fmt.Printf("note: missing CPU calibration (%.1f vs %.1f), skipping wall-time comparisons\n",
			base.CalibrationMS, fresh.CalibrationMS)
		return
	}
	speed := base.CalibrationMS / fresh.CalibrationMS // <1: machine now slower
	fmt.Printf("calibration %.1fms -> %.1fms: normalizing fresh wall times by %.2fx\n",
		base.CalibrationMS, fresh.CalibrationMS, speed)
	wall := func(name string, old, new float64) { gate(name, old, new*speed, +1) }

	wall("suite_wall_ms", base.SuiteWallMS, fresh.SuiteWallMS)
	if base.EarlyUnsatStop != nil && fresh.EarlyUnsatStop != nil {
		wall("early_unsat_stop.incremental_ms",
			base.EarlyUnsatStop.IncrementalMS, fresh.EarlyUnsatStop.IncrementalMS)
		// The speedup ratio is the headline the incremental solver was
		// built for, and a slide that stays inside the generic window
		// (8.0x -> 6.6x is -17%) is still a real regression — so it
		// gets its own tighter threshold. The ratio is measured within
		// one run and is therefore self-normalizing; it sits in the
		// calibrated same-host section only so both sides' timing
		// loops ran under comparable schedulers.
		if ov, nv := base.EarlyUnsatStop.Speedup, fresh.EarlyUnsatStop.Speedup; ov > 0 && nv > 0 {
			if drop := (ov - nv) / ov; drop > maxSpeedupDrop {
				failf("early_unsat_stop.speedup dropped %.0f%%: %.2fx -> %.2fx (allowed %.0f%%)",
					drop*100, ov, nv, maxSpeedupDrop*100)
			} else {
				fmt.Printf("ok: early_unsat_stop.speedup %.2fx -> %.2fx (%+.0f%%)\n", ov, nv, -drop*100)
			}
		}
	}
	if len(base.SummarySweep) > 0 && len(fresh.SummarySweep) > 0 {
		ob, nb := base.SummarySweep[len(base.SummarySweep)-1], fresh.SummarySweep[len(fresh.SummarySweep)-1]
		if ob.TraceOps == nb.TraceOps {
			wall("summary_sweep.summarized_ms", ob.SummarizedMS, nb.SummarizedMS)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
