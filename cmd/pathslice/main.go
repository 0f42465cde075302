// Command pathslice slices a candidate path to an error location of a
// MiniC program and reports the slice and its feasibility verdict.
//
// Usage:
//
//	pathslice [-long] [-unroll k] [-early] [-skipfns] [-summaries]
//	          [-portfolio-batch] [-trace-file f [-stream]]
//	          [-conc-trace f] [-deadline d] [-fault-* ...]
//	          [-trace-out f] [-metrics-addr a] [-v] file.mc
//
// -conc-trace slices a recorded multi-threaded PSTRC02 interleaving of
// file.mc with the two-phase concurrent walk (docs/CONCURRENCY.md)
// instead of searching the CFA for a candidate path.
//
// The candidate path is found by a data-free graph search (the kind of
// possibly-infeasible counterexample an imprecise static analysis
// returns); -long unrolls loops like a DFS model checker would.
//
// Robustness (docs/ROBUSTNESS.md): -deadline bounds slicing plus
// feasibility per target — expiry degrades to a larger (still sound)
// slice and an UNKNOWN feasibility verdict; -fault-* installs the
// deterministic fault injector.
//
// Scaling (docs/PERFORMANCE.md): -summaries memoizes context-keyed
// callee frame summaries so repeated calls cost a table lookup;
// -trace-file records the candidate path in the binary PSTRC format,
// and -stream slices it straight from that file with only a bounded
// window of frames resident.
//
// Exit codes: 0 every analyzed slice infeasible, 1 internal error,
// 2 usage, 3 a feasible slice was found, 4 some verdict was
// unknown/timed out (and none was feasible).
//
// Observability (docs/OBSERVABILITY.md): -trace-out writes a JSONL
// event log ("-" for stderr) and prints the per-phase time/call table
// on exit; -metrics-addr serves /metrics, /debug/vars, /debug/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/faults"
	"pathslice/internal/obs"
	"pathslice/internal/report"
	"pathslice/internal/smt"
)

// Exit codes (shared by all three binaries, docs/ROBUSTNESS.md).
const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
	exitUnsafe   = 3
	exitTimeout  = 4
)

func main() {
	long := flag.Bool("long", false, "produce a long (loop-unrolling) candidate path")
	unroll := flag.Int("unroll", 3, "loop unrolling bound for -long")
	early := flag.Bool("early", false, "enable the early-unsat-stop optimization (§4.2)")
	skip := flag.Bool("skipfns", false, "enable the function-skipping optimization (§4.2; loses completeness)")
	summaries := flag.Bool("summaries", false, "memoize context-keyed callee frame summaries (gcc-scale traces; docs/PERFORMANCE.md)")
	portfolioBatch := flag.Bool("portfolio-batch", false, "defer feasibility verdicts and decide all targets in one batched solver call (shared trace prefixes asserted once)")
	traceFile := flag.String("trace-file", "", "record each candidate path to this binary trace file (.N suffix per extra target)")
	concTrace := flag.String("conc-trace", "", "slice a recorded multi-threaded PSTRC02 trace of file.mc (docs/CONCURRENCY.md) instead of searching for a path")
	stream := flag.Bool("stream", false, "slice by streaming from -trace-file (bounded resident frames) instead of from memory")
	trace := flag.Bool("trace", false, "print the annotated backward pass (live sets and step locations, like Fig. 1(C))")
	traceOut := flag.String("trace-out", "", "write a JSONL trace event log to this file (\"-\" for stderr) and print the per-phase table")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :8080)")
	solverStats := flag.Bool("solver-stats", false, "print the smt_* counter table (incremental reuse, warm starts, cache) to stderr on exit")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline per target (0 = none); expiry degrades to a sound superset slice")
	faultCfg := faults.FlagConfig(flag.CommandLine)
	verbose := flag.Bool("v", false, "print the input path and the slice")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pathslice [flags] file.mc")
		flag.Usage()
		os.Exit(exitUsage)
	}
	if *stream && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "pathslice: -stream requires -trace-file")
		os.Exit(exitUsage)
	}
	if cfg := faultCfg(); cfg != nil {
		faults.Install(faults.New(*cfg))
	}
	shutdown, err := obs.Setup(*traceOut, *metricsAddr)
	if err != nil {
		fatal(err)
	}
	if *solverStats {
		obs.Default().SetEnabled(true)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := compile.Source(string(src))
	if err != nil {
		fatal(err)
	}
	locs := prog.ErrorLocs()
	if len(locs) == 0 {
		fatal(fmt.Errorf("%s: no error locations (use `error;` or `assert(...)`)", flag.Arg(0)))
	}
	slicer := core.NewWithOptions(prog, core.Options{
		EarlyUnsatStop: *early,
		SkipFunctions:  *skip,
		Summaries:      *summaries,
		RecordTrace:    *trace,
	})
	feasible, undecided := 0, 0
	if *concTrace != "" {
		runConcTrace(slicer, prog, *concTrace, *deadline, *verbose, &feasible, &undecided)
		if err := shutdown(); err != nil {
			fatal(err)
		}
		switch {
		case feasible > 0:
			os.Exit(exitUnsafe)
		case undecided > 0:
			os.Exit(exitTimeout)
		}
		return
	}
	// -portfolio-batch defers the per-target feasibility verdicts and
	// decides them all in one grouped solver call after the loop.
	var batchTargets []*cfa.Loc
	var batchSlices []cfa.Path
	for ti, target := range locs {
		var path cfa.Path
		if *long {
			path = cfa.WalkLongPath(prog, target, *unroll, 0)
		}
		if path == nil {
			path = cfa.FindPath(prog, target, cfa.FindOptions{})
		}
		if path == nil {
			fmt.Printf("%s: unreachable in the CFA graph\n", target)
			continue
		}
		ctx := context.Background()
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		var res *core.Result
		if *traceFile != "" {
			tf := *traceFile
			if ti > 0 {
				tf = fmt.Sprintf("%s.%d", *traceFile, ti)
			}
			if werr := cfa.WriteTraceFile(tf, prog, path); werr != nil {
				fatal(werr)
			}
			if *stream {
				r, oerr := cfa.OpenTraceFile(tf, prog)
				if oerr != nil {
					fatal(oerr)
				}
				res, err = slicer.SliceStream(ctx, r)
				peak := r.FramesPeak()
				if cerr := r.Close(); err == nil && cerr != nil {
					err = cerr
				}
				if err == nil {
					fmt.Printf("%s: streamed %d edges from %s, peak resident frames %d\n",
						target, res.Stats.InputEdges, tf, peak)
				}
			}
		}
		if res == nil && err == nil {
			res, err = slicer.SliceCtx(ctx, path)
		}
		if err != nil {
			fatal(err)
		}
		if res.Degraded {
			fmt.Printf("%s: DEGRADED slice (deadline or unanswered analysis query; superset, still sound)\n", target)
		}
		st := res.Stats
		fmt.Printf("%s: path %d edges (%d blocks) -> slice %d edges (%d blocks), %.2f%%\n",
			target, st.InputEdges, st.InputBlocks, st.SliceEdges, st.SliceBlocks, 100*st.Ratio())
		if slicer.Summ != nil {
			fmt.Printf("  summaries: %d hits, %d misses (memo %d contexts, %d bytes)\n",
				st.SummaryHits, st.SummaryMisses, slicer.Summ.Len(), slicer.Summ.Bytes())
		}
		if *verbose {
			fmt.Printf("--- path ---\n%s--- slice ---\n%s", path, res.Slice)
		}
		if *trace {
			fmt.Printf("--- annotated backward pass ---\n%s", report.AnnotatedTrace(path, res))
		}
		fmt.Print("  ", report.SliceSummary(res))
		if res.KnownInfeasible {
			fmt.Printf("  verdict: INFEASIBLE (early stop after %d solver checks)\n", st.SolverChecks)
			continue
		}
		if *portfolioBatch {
			batchTargets = append(batchTargets, target)
			batchSlices = append(batchSlices, res.Slice)
			continue
		}
		fr, _ := slicer.CheckFeasibilityCtx(ctx, res.Slice)
		printVerdict(fr, &feasible, &undecided)
	}
	if len(batchSlices) > 0 {
		ctx := context.Background()
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		for i, fr := range slicer.CheckFeasibilityBatchCtx(ctx, batchSlices, nil, 1) {
			fmt.Printf("%s:", batchTargets[i])
			printVerdict(fr, &feasible, &undecided)
		}
	}
	if *solverStats {
		fmt.Fprintln(os.Stderr, "solver counters:")
		_ = obs.WriteCounterTable(os.Stderr, "smt_")
	}
	if err := shutdown(); err != nil {
		fatal(err)
	}
	switch {
	case feasible > 0:
		os.Exit(exitUnsafe)
	case undecided > 0:
		os.Exit(exitTimeout)
	}
}

// runConcTrace slices one recorded multi-threaded trace with the
// two-phase concurrent walk and reports the racy-edge structure plus
// the recorded interleaving's feasibility verdict.
func runConcTrace(slicer *core.Slicer, prog *cfa.Program, file string, deadline time.Duration, verbose bool, feasible, undecided *int) {
	tr, err := cfa.ReadConcTraceFile(file, prog)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	res, err := slicer.ConcSliceCtx(ctx, tr)
	if err != nil {
		fatal(err)
	}
	if res.Degraded {
		fmt.Printf("%s: DEGRADED slice (deadline expiry; superset, still sound)\n", file)
	}
	st := res.Stats
	fmt.Printf("%s: %d threads, trace %d events -> slice %d events, %.2f%%\n",
		file, st.Threads, st.InputEdges, st.SliceEdges, 100*st.Ratio())
	fmt.Printf("  %d racy edges cut %d instruction regions; %d frames, %d whole threads skipped\n",
		st.RacyEdges, st.Regions, st.SkippedFrames, st.SkippedThreads)
	if verbose {
		fmt.Printf("--- trace ---\n%s--- slice ---\n%s", tr, res.Slice)
	}
	fr, _ := slicer.CheckConcFeasibility(res.Slice)
	// The verdict speaks only for the recorded interleaving; an Unsat
	// here does not rule out other legal reorderings.
	printVerdict(fr, feasible, undecided)
}

// printVerdict renders one feasibility result and updates the exit-code
// tallies (shared by the inline and the batched verdict paths).
func printVerdict(fr smt.Result, feasible, undecided *int) {
	switch fr.Status {
	case smt.StatusSat:
		fmt.Printf("  verdict: FEASIBLE — the error location is reachable (modulo termination)\n")
		if fr.Model != nil {
			fmt.Printf("  witness state: %v\n", fr.Model)
		}
		*feasible++
	case smt.StatusUnsat:
		fmt.Printf("  verdict: INFEASIBLE — this path (and its variants) cannot reach the target\n")
	default:
		fmt.Printf("  verdict: UNKNOWN (solver limits, deadline, or injected fault)\n")
		*undecided++
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pathslice:", err)
	os.Exit(exitInternal)
}
