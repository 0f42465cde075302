// Command blastlite runs the CEGAR model checker on a MiniC program,
// with path slicing in the counterexample analysis phase (the way the
// paper deploys Algorithm PathSlice inside BLAST).
//
// Usage:
//
//	blastlite [-noslice] [-summaries] [-trace-file f] [-dfs]
//	          [-file-property] [-maxwork n] [-workers n]
//	          [-deadline d] [-fault-* ...] [-trace-out f]
//	          [-metrics-addr a] [-v] file.mc
//
// With -file-property the program may call the fopen/fclose/fgets/
// fprintf/fputs intrinsics; it is instrumented for the file-handling
// property of §5 and each check cluster is verified independently.
//
// Robustness (docs/ROBUSTNESS.md): -deadline bounds the wall-clock time
// of each check (expiry yields a "timeout" verdict, never a wrong one);
// the -fault-* flags install the deterministic fault injector.
//
// Exit codes: 0 every check safe, 1 internal error, 2 usage, 3 a
// feasible counterexample was found, 4 some check timed out or was
// undecided (and none found a bug).
//
// Observability (docs/OBSERVABILITY.md): -trace-out writes a JSONL
// event log ("-" for stderr) and prints the per-phase time/call table
// on exit; -metrics-addr serves /metrics (Prometheus text),
// /debug/vars, and /debug/pprof over HTTP while the check runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/faults"
	"pathslice/internal/instrument"
	"pathslice/internal/lang/ast"
	"pathslice/internal/lang/parser"
	"pathslice/internal/lang/types"
	"pathslice/internal/obs"
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
	noslice := flag.Bool("noslice", false, "disable path slicing (raw counterexample analysis)")
	summaries := flag.Bool("summaries", false, "memoize context-keyed frame summaries in the counterexample slicer (docs/PERFORMANCE.md)")
	traceFile := flag.String("trace-file", "", "record each feasible witness path to this binary trace file (.N suffix per extra witness)")
	dfs := flag.Bool("dfs", false, "depth-first abstract search (long counterexamples)")
	fileProp := flag.Bool("file-property", false, "instrument and check the file-handling property")
	lockProp := flag.Bool("lock-property", false, "instrument and check the lock discipline property")
	maxWork := flag.Int("maxwork", 0, "work budget per check (0 = default)")
	workers := flag.Int("workers", 1, "CEGAR solver workers: parallel per-predicate entailment queries in the abstract post")
	noCache := flag.Bool("nocache", false, "disable the solver result cache and abstract-post memoization")
	traceOut := flag.String("trace-out", "", "write a JSONL trace event log to this file (\"-\" for stderr) and print the per-phase table")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :8080)")
	solverStats := flag.Bool("solver-stats", false, "print the smt_* counter table (incremental reuse, warm starts, cache) to stderr on exit")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline per check (0 = none); expiry reports a timeout verdict")
	faultCfg := faults.FlagConfig(flag.CommandLine)
	verbose := flag.Bool("v", false, "print witnesses")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: blastlite [flags] file.mc")
		flag.Usage()
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
	opts := cegar.Options{
		UseSlicing:         !*noslice,
		DFS:                *dfs,
		MaxWork:            *maxWork,
		SolverWorkers:      *workers,
		DisableSolverCache: *noCache,
		DisablePostMemo:    *noCache,
		Deadline:           *deadline,
		SlicerOpts:         core.Options{Summaries: *summaries},
	}

	var totals checkTotals
	totals.TraceFile = *traceFile
	if *fileProp {
		checkProperty(string(src), opts, *verbose, &totals, instrument.Instrument)
	} else if *lockProp {
		checkProperty(string(src), opts, *verbose, &totals, instrument.InstrumentLocks)
	} else {
		prog, err := compile.Source(string(src))
		if err != nil {
			fatal(err)
		}
		checkProgram(prog, opts, *verbose, &totals)
	}
	// The trace log's cegar_solver_calls counter is defined to equal
	// the sum of Result.SolverCalls over every check this run
	// performed (docs/OBSERVABILITY.md).
	obs.RecordCounter("cegar_solver_calls", totals.SolverCalls)
	obs.RecordCounter("cegar_checks", totals.Checks)
	if *solverStats {
		fmt.Fprintln(os.Stderr, "solver counters:")
		_ = obs.WriteCounterTable(os.Stderr, "smt_")
	}
	if err := shutdown(); err != nil {
		fatal(err)
	}
	os.Exit(totals.exitCode())
}

// checkTotals accumulates run-wide counters for the trace summary and
// the process exit code.
type checkTotals struct {
	Checks      int64
	SolverCalls int64
	Unsafe      int64 // checks with a feasible counterexample
	Undecided   int64 // timeout / diverged / unknown checks

	// TraceFile, when set, records each feasible witness path in the
	// binary PSTRC trace format (a .N suffix distinguishes witnesses
	// after the first).
	TraceFile string
}

// exitCode maps the run's verdicts to the shared exit-code scheme: a
// found bug dominates, then undecided checks, then all-safe.
func (t *checkTotals) exitCode() int {
	switch {
	case t.Unsafe > 0:
		return exitUnsafe
	case t.Undecided > 0:
		return exitTimeout
	}
	return exitOK
}

func checkProgram(prog *cfa.Program, opts cegar.Options, verbose bool, totals *checkTotals) {
	locs := prog.ErrorLocs()
	if len(locs) == 0 {
		fmt.Println("no error locations to check")
		return
	}
	checker := cegar.New(prog, opts)
	for _, target := range locs {
		r := checker.Check(target)
		totals.Checks++
		totals.SolverCalls += r.SolverCalls
		switch {
		case r.Verdict == cegar.VerdictUnsafe:
			totals.Unsafe++
			recordWitness(prog, r.Witness, totals)
		case !r.Verdict.Decided():
			totals.Undecided++
		}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "blastlite: %s: contained internal error: %v\n", target, r.Err)
		}
		fmt.Printf("%s: %s (refinements %d, work %d, predicates %d, solver calls %d, cache %d/%d hit, memo hits %d)\n",
			target, r.Verdict, r.Refinements, r.Work, r.Predicates,
			r.SolverCalls, r.CacheHits, r.CacheHits+r.CacheMisses, r.PostMemoHits)
		if verbose && r.Verdict == cegar.VerdictUnsafe {
			fmt.Printf("--- witness slice (%d edges) ---\n%s", len(r.Witness), r.Witness)
		}
		for _, ts := range r.Traces {
			fmt.Printf("  trace %d blocks -> slice %d blocks (%.2f%%)\n",
				ts.TraceBlocks, ts.SliceBlocks, ts.RatioPercent())
		}
	}
}

// recordWitness writes a feasible witness to totals.TraceFile in the
// PSTRC format. A sliced witness is a subsequence, not a contiguous
// program path, so recording needs -noslice (the raw counterexample);
// otherwise we say so instead of writing a file OpenTraceFile would
// reject.
func recordWitness(prog *cfa.Program, witness cfa.Path, totals *checkTotals) {
	if totals.TraceFile == "" || len(witness) == 0 {
		return
	}
	tf := totals.TraceFile
	if totals.Unsafe > 1 {
		tf = fmt.Sprintf("%s.%d", totals.TraceFile, totals.Unsafe-1)
	}
	if err := witness.Validate(prog); err != nil {
		fmt.Fprintf(os.Stderr, "blastlite: -trace-file: witness is a slice, not a contiguous path; rerun with -noslice to record raw traces\n")
		return
	}
	if err := cfa.WriteTraceFile(tf, prog, witness); err != nil {
		fmt.Fprintf(os.Stderr, "blastlite: -trace-file: %v\n", err)
		return
	}
	fmt.Printf("  witness trace recorded: %s (%d edges)\n", tf, len(witness))
}

func checkProperty(src string, opts cegar.Options, verbose bool, totals *checkTotals,
	pass func(*ast.Program) (*instrument.Result, error)) {
	sp := obs.StartSpan(obs.PhaseParse)
	astProg, err := parser.Parse([]byte(src))
	sp.End()
	if err != nil {
		fatal(err)
	}
	ins, err := pass(astProg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instrumented: %d check functions, %d sites\n", len(ins.Clusters), ins.TotalSites)
	for _, cl := range ins.Clusters {
		clusterProg, err := instrument.ForCluster(ins.Prog, cl.Function)
		if err != nil {
			fatal(err)
		}
		sp = obs.StartSpan(obs.PhaseTypecheck)
		info, err := types.Check(clusterProg)
		sp.End()
		if err != nil {
			fatal(err)
		}
		sp = obs.StartSpan(obs.PhaseCFA)
		cprog, err := cfa.Build(info)
		sp.End()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== cluster %s (%d sites)\n", cl.Function, cl.Sites)
		checkProgram(cprog, opts, verbose, totals)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blastlite:", err)
	os.Exit(exitInternal)
}
