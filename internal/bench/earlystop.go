package bench

import (
	"fmt"
	"strings"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/logic"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// Early-unsat-stop micro-benchmark (§4.2): the same backward loop run
// two ways — through the incremental solver (assert the delta, check)
// and as the from-scratch baseline that re-solves the whole asserted
// prefix at every check. Used by BenchmarkEarlyUnsatStop and
// TestPerformanceGates at the repo root.

// GuardChainSource returns a MiniC program whose error path carries
// guards+2 taken assumes before the backward pass reaches the
// operation that makes the prefix unsatisfiable: the error is guarded
// by x > 1000 deep inside an x < 500 region, separated by a chain of
// individually satisfiable x == -i else-branches. Traversed backward,
// every disequality checks satisfiable; only the x < 500 assume — the
// second-to-last operation — contradicts, so an early-stop slicer
// performs one satisfiability check per guard over a growing
// conjunction. This is the worst case the incremental solver targets.
func GuardChainSource(guards int) string {
	var sb strings.Builder
	sb.WriteString("int x;\n\nvoid main() {\n  x = nondet();\n  if (x < 500) {\n")
	for i := 1; i <= guards; i++ {
		fmt.Fprintf(&sb, "    if (x == -%d) {\n      x = 0;\n    }\n", i)
	}
	sb.WriteString("    if (x > 1000) {\n      error;\n    }\n  }\n}\n")
	return sb.String()
}

// GuardChainSetup compiles GuardChainSource(guards) and finds its
// error path.
func GuardChainSetup(guards int) (*cfa.Program, cfa.Path, error) {
	prog, err := compile.Source(GuardChainSource(guards))
	if err != nil {
		return nil, nil, err
	}
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	if path == nil {
		return nil, nil, fmt.Errorf("bench: guard chain has no error path")
	}
	return prog, path, nil
}

// EarlyStopIncremental slices the path with the early-unsat-stop
// optimization (checking after every taken assume) and returns the
// slicer result; the caller asserts KnownInfeasible.
func EarlyStopIncremental(prog *cfa.Program, path cfa.Path) (*core.Result, error) {
	slicer := core.NewWithOptions(prog, core.Options{EarlyUnsatStop: true})
	return slicer.Slice(path)
}

// EarlyStopScratch replays the pre-incremental early-stop loop: walk
// the path backward, encode every operation, and at each assume
// re-solve the conjunction of everything asserted so far from scratch.
// It returns the number of checks performed before the unsatisfiable
// prefix was detected, or an error if the path never became
// unsatisfiable.
func EarlyStopScratch(prog *cfa.Program, path cfa.Path) (int, error) {
	slicer := core.New(prog)
	enc := wp.NewTraceEncoder(slicer.Prog, slicer.Alias, slicer.Addrs)
	var fs []logic.Formula
	checks := 0
	for i := len(path) - 1; i >= 0; i-- {
		op := path[i].Op
		fs = append(fs, enc.EncodeOpBackward(op))
		if op.Kind == cfa.OpAssume {
			checks++
			if smt.Solve(logic.MkAnd(fs...)).Status == smt.StatusUnsat {
				return checks, nil
			}
		}
	}
	return checks, fmt.Errorf("bench: scratch loop never found the prefix unsatisfiable")
}
