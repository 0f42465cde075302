// Command farm is the time-budgeted verification farm: for as long as
// you give it, it repeats the differential/metamorphic oracle campaign
// with an advancing seed and runs the parser and solver native fuzz
// targets. `make farm` runs it; `make check` includes a short burst
// (FARMTIME=60s).
//
// Usage:
//
//	farm [-time 60s] [-oracle-seeds 60] [-fuzztime 5s]
//
// Phases per iteration (each bounded by the remaining budget):
//
//  1. Oracle: a fresh campaign (seed = iteration number, so every
//     iteration explores new programs) — any Theorem-1 violation
//     fails the farm.
//  2. Fuzz: FuzzParse, FuzzLinearize, FuzzNum (the solver's exact
//     number type at the int64 word boundary) and FuzzUnsatCore (the
//     grouped unsat-core filter against the plain one) for -fuzztime
//     each (the threaded-syntax and PSTRC02 fuzzers stay on
//     `make fuzz`).
//
// Exit codes: 0 all phases green for the whole budget, 1 any failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"

	"pathslice/internal/oracle"
)

func main() {
	budget := flag.Duration("time", 60*time.Second, "total wall-clock budget for the farm loop")
	oracleSeeds := flag.Int("oracle-seeds", 60, "seeds per oracle campaign iteration")
	fuzztime := flag.Duration("fuzztime", 5*time.Second, "per-target native fuzzing time per iteration")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: farm [flags]")
		flag.Usage()
		os.Exit(2)
	}

	deadline := time.Now().Add(*budget)
	iter := 0
	for {
		remaining := time.Until(deadline)
		if iter > 0 && remaining <= 0 {
			break
		}
		iter++
		fmt.Printf("farm: iteration %d (%.0fs remaining)\n", iter, remaining.Seconds())

		if err := oraclePhase(iter, *oracleSeeds, remaining); err != nil {
			fatal(err)
		}
		if err := fuzzPhase("./internal/lang/parser/", "FuzzParse$", *fuzztime); err != nil {
			fatal(err)
		}
		if err := fuzzPhase("./internal/smt/", "FuzzLinearize", *fuzztime); err != nil {
			fatal(err)
		}
		if err := fuzzPhase("./internal/smt/", "FuzzNum", *fuzztime); err != nil {
			fatal(err)
		}
		if err := fuzzPhase("./internal/smt/", "FuzzUnsatCore", *fuzztime); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("farm: ok — %d iteration(s) green\n", iter)
}

// oraclePhase runs one campaign. The seed advances with the iteration
// so a long farm run explores fresh programs instead of re-verifying
// the first campaign forever.
func oraclePhase(iter, seeds int, remaining time.Duration) error {
	ceiling := 30 * time.Second
	if remaining > 0 && remaining < ceiling {
		ceiling = remaining
	}
	stats := oracle.Run(oracle.Config{
		Seeds:     seeds,
		Budget:    ceiling,
		Seed:      int64(iter),
		CorpusDir: "testdata/oracle",
	})
	if len(stats.Violations) > 0 {
		for _, v := range stats.Violations {
			fmt.Fprintf(os.Stderr, "farm: violation: %s\n", v)
		}
		return fmt.Errorf("oracle campaign (iteration %d): %d violations", iter, len(stats.Violations))
	}
	fmt.Printf("farm: %s\n", stats.Summary())
	return nil
}

// fuzzPhase runs one native fuzz target through the go tool, exactly
// like `make fuzz`.
func fuzzPhase(pkg, target string, d time.Duration) error {
	cmd := exec.Command("go", "test", pkg, "-run", "^$",
		"-fuzz", target, "-fuzztime", d.String())
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("fuzz %s: %w", target, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "farm:", err)
	os.Exit(1)
}
