// Command farm is the time-budgeted verification farm: one command
// that keeps hammering the solver pipeline for as long as you give it
// — the differential/metamorphic oracle campaign, the parser and
// solver native fuzz targets, and the benchmark suite, with every fresh BENCH_PR10.json
// gated by benchdiff against the checked-in baseline. `make farm`
// runs it; `make check` includes a short burst (FARMTIME=60s).
//
// Usage:
//
//	farm [-time 60s] [-oracle-seeds 60] [-fuzztime 5s] [-workdir d]
//	     [-bench-min 90s] [-skip-selftest]
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
//  3. Bench: when at least -bench-min budget remains, cmd/benchjson
//     writes a fresh BENCH_PR10.json into the workspace (next to a copy
//     of the checked-in artifacts) and cmd/benchdiff gates it — the
//     regression thresholds are the same ones `make bench-diff`
//     enforces on the committed artifacts.
//
// Before the loop, a planted-regression self-test proves the gate has
// teeth: the newest artifact is copied into a scratch directory with
// its early-unsat-stop speedup slashed and its batch ratio zeroed,
// and benchdiff MUST fail on it — if it passes, the farm refuses to
// run. The workspace never touches the checked-in artifacts.
//
// Exit codes: 0 all phases green for the whole budget, 1 any failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"pathslice/internal/oracle"
)

func main() {
	budget := flag.Duration("time", 60*time.Second, "total wall-clock budget for the farm loop")
	oracleSeeds := flag.Int("oracle-seeds", 60, "seeds per oracle campaign iteration")
	fuzztime := flag.Duration("fuzztime", 5*time.Second, "per-target native fuzzing time per iteration")
	workdir := flag.String("workdir", "", "farm workspace for bench artifacts (default: a temp dir)")
	benchMin := flag.Duration("bench-min", 90*time.Second, "minimum remaining budget to start a bench phase")
	skipSelftest := flag.Bool("skip-selftest", false, "skip the planted-regression benchdiff self-test")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: farm [flags]")
		flag.Usage()
		os.Exit(2)
	}

	wd := *workdir
	if wd == "" {
		var err error
		wd, err = os.MkdirTemp("", "farm-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(wd)
	} else if err := os.MkdirAll(wd, 0o755); err != nil {
		fatal(err)
	}

	if !*skipSelftest {
		if err := selftest(wd); err != nil {
			fatal(fmt.Errorf("planted-regression self-test: %w", err))
		}
		fmt.Println("farm: self-test ok — benchdiff fails on a planted regression")
	}

	deadline := time.Now().Add(*budget)
	iter := 0
	benched := false
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
		if time.Until(deadline) >= *benchMin {
			if err := benchPhase(wd); err != nil {
				fatal(err)
			}
			benched = true
		}
	}
	if !benched {
		fmt.Printf("farm: budget too short for a bench phase (needs %-.0fs); bench gating covered by the self-test\n",
			benchMin.Seconds())
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

// benchPhase copies the checked-in artifacts into the workspace, runs
// benchjson there (oracle omitted — the farm runs its own campaigns),
// and gates the fresh artifact against the newest committed baseline
// with benchdiff's default thresholds.
func benchPhase(wd string) error {
	if err := copyArtifacts(".", wd); err != nil {
		return err
	}
	run := func(args ...string) error {
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		return cmd.Run()
	}
	if err := run("run", "./cmd/benchjson",
		"-out", filepath.Join(wd, "BENCH_PR10.json"), "-oracle-seeds", "0", "-sweep-reps", "3"); err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	if err := run("run", "./cmd/benchdiff", "-dir", wd); err != nil {
		return fmt.Errorf("benchdiff: fresh artifact regressed against the baseline: %w", err)
	}
	return nil
}

// selftest proves benchdiff would catch a perf regression: it doctors
// a copy of the newest artifact — early-unsat-stop speedup slashed to
// a third (the 8.0x -> 6.6x slide class, exaggerated) and the batch
// advantage zeroed — and requires benchdiff to fail on the scratch
// directory.
func selftest(wd string) error {
	dir := filepath.Join(wd, "selftest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := copyArtifacts(".", dir); err != nil {
		return err
	}
	newest, err := newestArtifact(dir)
	if err != nil {
		return err
	}
	if err := plantRegression(newest); err != nil {
		return err
	}
	cmd := exec.Command("go", "run", "./cmd/benchdiff", "-dir", dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		os.Stdout.Write(out)
		return fmt.Errorf("benchdiff PASSED on a planted regression in %s — the gate is toothless", newest)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		return fmt.Errorf("benchdiff did not run: %w", err)
	}
	return nil
}

// plantRegression rewrites one artifact in place: speedup to a third
// of its recorded value (with incremental_ms inflated to match, so the
// artifact stays self-consistent) and the batched-solving ratio to
// 1.0 (batching that buys nothing).
func plantRegression(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var a map[string]any
	if err := json.Unmarshal(buf, &a); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if es, ok := a["early_unsat_stop"].(map[string]any); ok {
		if sp, ok := es["speedup"].(float64); ok {
			es["speedup"] = sp / 3
		}
		if inc, ok := es["incremental_ms"].(float64); ok {
			es["incremental_ms"] = inc * 3
		}
	}
	if pf, ok := a["portfolio"].(map[string]any); ok {
		if b, ok := pf["batch"].(map[string]any); ok {
			b["ratio"] = 1.0
			if s, ok := b["serial_ms"].(float64); ok {
				b["batched_ms"] = s
			}
		}
	}
	doctored, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doctored, '\n'), 0o644)
}

// copyArtifacts copies every BENCH_PR*.json from src into dst.
func copyArtifacts(src, dst string) error {
	paths, err := filepath.Glob(filepath.Join(src, "BENCH_PR*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_PR*.json artifacts in %s", src)
	}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(p)), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// newestArtifact returns the BENCH_PR*.json with the highest PR number
// in dir (lexicographic glob order is wrong once PR numbers reach two
// digits, so compare numerically via the benchdiff convention).
func newestArtifact(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_PR*.json"))
	if err != nil || len(paths) == 0 {
		return "", fmt.Errorf("no artifacts in %s", dir)
	}
	best, bestN := "", -1
	for _, p := range paths {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "BENCH_PR%d.json", &n); err != nil {
			continue
		}
		if n > bestN {
			best, bestN = p, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no numbered artifacts in %s", dir)
	}
	return best, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "farm:", err)
	os.Exit(1)
}
