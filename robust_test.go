package pathslice

// Metamorphic robustness tests (docs/ROBUSTNESS.md): under injected
// faults — solver Unknowns, hung solver calls, worker panics, deadline
// expiry — the pipeline must degrade soundly. Concretely: a slice
// computed under faults is a superset of the fault-free slice, a CEGAR
// verdict under faults only weakens (never flips Safe <-> Unsafe), and
// a hung solver never holds a deadlined check hostage.
//
// These tests install the process-global fault injector, so none of
// them may use t.Parallel.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/faults"
	"pathslice/internal/oracle"
)

func loadProgram(t *testing.T, file string) *cfa.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Source(string(src))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return prog
}

// candidatePaths returns one candidate path per error location of the
// program, the way cmd/pathslice finds them.
func candidatePaths(t *testing.T, prog *cfa.Program) []cfa.Path {
	t.Helper()
	var paths []cfa.Path
	for _, target := range prog.ErrorLocs() {
		if p := cfa.FindPath(prog, target, cfa.FindOptions{}); p != nil {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		t.Fatal("no candidate paths found")
	}
	return paths
}

// assertSuperset fails unless every edge taken by the baseline slice is
// also taken by the degraded one.
func assertSuperset(t *testing.T, label string, baseline, degraded *core.Result) {
	t.Helper()
	if len(baseline.Taken) != len(degraded.Taken) {
		t.Fatalf("%s: Taken length mismatch: %d vs %d", label, len(baseline.Taken), len(degraded.Taken))
	}
	for i, tk := range baseline.Taken {
		if tk && !degraded.Taken[i] {
			t.Fatalf("%s: edge %d in the fault-free slice but dropped under faults — not a superset", label, i)
		}
	}
}

// TestMetamorphicSliceSupersetUnderInjectedUnknowns: with solver
// Unknowns injected at >= 20%, the early-unsat-stop optimization loses
// proofs and the slicer must conservatively keep scanning — so for
// every program, path, and seed, the faulted slice contains every edge
// of the fault-free slice.
func TestMetamorphicSliceSupersetUnderInjectedUnknowns(t *testing.T) {
	injectedTotal := int64(0)
	for _, file := range []string{"ex2.mc", "safe.mc", "overdraft.mc"} {
		prog := loadProgram(t, file)
		slicer := core.NewWithOptions(prog, core.Options{EarlyUnsatStop: true})
		for pi, path := range candidatePaths(t, prog) {
			baseline, err := slicer.Slice(path)
			if err != nil {
				t.Fatalf("%s path %d: fault-free slice failed: %v", file, pi, err)
			}
			for seed := int64(1); seed <= 5; seed++ {
				in := faults.New(faults.Config{
					Seed:  seed,
					Rates: map[faults.Kind]float64{faults.SolverUnknown: 0.25},
				})
				prev := faults.Install(in)
				faulted, err := slicer.Slice(path)
				faults.Install(prev)
				if err != nil {
					t.Fatalf("%s path %d seed %d: faulted slice failed: %v", file, pi, seed, err)
				}
				assertSuperset(t, file, baseline, faulted)
				injectedTotal += in.Injected(faults.SolverUnknown)
			}
		}
	}
	if injectedTotal == 0 {
		t.Fatal("no solver-unknown faults fired at a 25% injection rate — the property was not exercised")
	}
}

// TestMetamorphicDegradedSliceIsSuperset: an expired deadline makes the
// slicer fall back to taking every remaining edge — the result must be
// flagged Degraded and be a superset of the fault-free slice.
func TestMetamorphicDegradedSliceIsSuperset(t *testing.T) {
	prog := loadProgram(t, "ex2.mc")
	slicer := core.New(prog)
	for pi, path := range candidatePaths(t, prog) {
		baseline, err := slicer.Slice(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		degraded, err := slicer.SliceCtx(ctx, path)
		if err != nil {
			t.Fatalf("path %d: degraded slice must still be produced, got error %v", pi, err)
		}
		if !degraded.Degraded {
			t.Fatalf("path %d: cancelled context did not set Degraded", pi)
		}
		assertSuperset(t, "ex2.mc (cancelled ctx)", baseline, degraded)
	}
}

// TestMetamorphicStreamedDegradedSliceIsSuperset: the PR3 degradation
// contract extends to the streaming reader (cfa.PathReader). A context
// cancelled before or during SliceStream must still yield a result —
// Degraded, and a superset of the fault-free slice — never an error or
// a panic; and a trace file that fails validation surfaces as a typed
// *cfa.TraceFormatError at open, so callers can distinguish corrupt
// input from analysis failure.
func TestMetamorphicStreamedDegradedSliceIsSuperset(t *testing.T) {
	prog := loadProgram(t, "ex2.mc")
	slicer := core.New(prog)
	dir := t.TempDir()
	for pi, path := range candidatePaths(t, prog) {
		baseline, err := slicer.Slice(path)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, fmt.Sprintf("p%d.pstrc", pi))
		if err := cfa.WriteTraceFile(file, prog, path); err != nil {
			t.Fatal(err)
		}

		// Pre-cancelled: deterministically degrades at the first step.
		r, err := cfa.OpenTraceFile(file, prog)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		degraded, err := slicer.SliceStream(ctx, r)
		r.Close()
		if err != nil {
			t.Fatalf("path %d: cancelled stream must still produce a slice, got %v", pi, err)
		}
		if !degraded.Degraded {
			t.Fatalf("path %d: cancelled context did not set Degraded on the streamed slice", pi)
		}
		assertSuperset(t, "ex2.mc (streamed, cancelled ctx)", baseline, degraded)

		// Cancelled concurrently: wherever the cancellation lands in the
		// backward scan, the result must come back error-free and be a
		// superset; Degraded is set only if it landed before the end.
		r, err = cfa.OpenTraceFile(file, prog)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		go cancel()
		mid, err := slicer.SliceStream(ctx, r)
		r.Close()
		if err != nil {
			t.Fatalf("path %d: mid-stream cancellation must degrade, not fail: %v", pi, err)
		}
		assertSuperset(t, "ex2.mc (streamed, mid-stream cancel)", baseline, mid)
	}

	// Corrupt input is a typed format error, not a degraded analysis.
	bad := filepath.Join(dir, "p0.pstrc")
	buf, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, buf[:len(buf)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	var ferr *cfa.TraceFormatError
	if _, err := cfa.OpenTraceFile(bad, prog); !errors.As(err, &ferr) {
		t.Fatalf("truncated trace file: want *cfa.TraceFormatError, got %v", err)
	}
}

// TestOracleContractHoldsForDegradedSlices: a Degraded slice (deadline
// expired mid-scan, slicer fell back to keeping every remaining edge)
// is still a slice, so the full Theorem-1 replay oracle must accept it
// with zero violations — degradation weakens minimality, never
// soundness or completeness.
func TestOracleContractHoldsForDegradedSlices(t *testing.T) {
	for _, file := range []string{"ex2.mc", "safe.mc", "overdraft.mc"} {
		prog := loadProgram(t, file)
		slicer := core.New(prog)
		degradedSeen := false
		for pi, path := range candidatePaths(t, prog) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := slicer.SliceCtx(ctx, path)
			if err != nil {
				t.Fatalf("%s path %d: degraded slice must still be produced, got %v", file, pi, err)
			}
			if res.Degraded {
				degradedSeen = true
			}
			rep := oracle.CheckResult(prog, path, res, core.Options{},
				oracle.CheckOptions{ReachCheck: true})
			for _, v := range rep.Violations {
				t.Errorf("%s path %d: degraded slice breaks the contract: %s", file, pi, v)
			}
		}
		if !degradedSeen {
			t.Errorf("%s: cancelled context never produced a Degraded result — property not exercised", file)
		}
	}
}

// TestOracleContractHoldsUnderInjectedUnknowns: with solver Unknowns
// injected under the early-unsat-stop slicer, lost proofs may make the
// oracle inconclusive but must never make it report a violation — the
// conservative slice stays sound, and the oracle's own undecidable
// checks degrade to "inconclusive", not to noise.
func TestOracleContractHoldsUnderInjectedUnknowns(t *testing.T) {
	sopts := core.Options{EarlyUnsatStop: true}
	copts := oracle.CheckOptions{ReachCheck: true}
	injectedTotal := int64(0)
	for _, file := range []string{"ex2.mc", "safe.mc", "overdraft.mc"} {
		prog := loadProgram(t, file)
		for pi, path := range candidatePaths(t, prog) {
			for seed := int64(1); seed <= 3; seed++ {
				in := faults.New(faults.Config{
					Seed:  seed,
					Rates: map[faults.Kind]float64{faults.SolverUnknown: 0.25},
				})
				prev := faults.Install(in)
				rep := oracle.CheckTrace(prog, path, sopts, copts)
				faults.Install(prev)
				for _, v := range rep.Violations {
					t.Errorf("%s path %d seed %d: faulted run reported a violation: %s", file, pi, seed, v)
				}
				injectedTotal += in.Injected(faults.SolverUnknown)
			}
		}
	}
	if injectedTotal == 0 {
		t.Fatal("no solver-unknown faults fired at a 25% injection rate — the property was not exercised")
	}
}

// checkAll runs one CEGAR check per error location and returns the
// verdicts in location order.
func checkAll(t *testing.T, prog *cfa.Program, opts cegar.Options) []cegar.Verdict {
	t.Helper()
	checker := cegar.New(prog, opts)
	var verdicts []cegar.Verdict
	for _, target := range prog.ErrorLocs() {
		r := checker.Check(target)
		if r.Err != nil {
			t.Logf("%s: contained error: %v", target, r.Err)
		}
		verdicts = append(verdicts, r.Verdict)
	}
	return verdicts
}

// TestMetamorphicVerdictWeakeningUnderInjectedUnknowns: with >= 20% of
// solver calls forced to Unknown, a check may lose its answer (Unknown
// or Timeout) but must never flip it — whenever the faulted run still
// decides, it decides the same way as the fault-free run.
func TestMetamorphicVerdictWeakeningUnderInjectedUnknowns(t *testing.T) {
	opts := cegar.Options{UseSlicing: true, MaxWork: 60000}
	injectedTotal, drawsTotal := int64(0), int64(0)
	for _, file := range []string{"safe.mc", "overdraft.mc"} {
		prog := loadProgram(t, file)
		baseline := checkAll(t, prog, opts)
		for i, v := range baseline {
			if !v.Decided() {
				t.Fatalf("%s check %d: fault-free baseline is undecided (%v)", file, i, v)
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			in := faults.New(faults.Config{
				Seed:  seed,
				Rates: map[faults.Kind]float64{faults.SolverUnknown: 0.25},
			})
			prev := faults.Install(in)
			faulted := checkAll(t, prog, opts)
			faults.Install(prev)
			injectedTotal += in.Injected(faults.SolverUnknown)
			drawsTotal += in.Draws(faults.SolverUnknown)
			for i, v := range faulted {
				if v.Decided() && v != baseline[i] {
					t.Fatalf("%s check %d seed %d: verdict flipped %v -> %v under injected Unknowns",
						file, i, seed, baseline[i], v)
				}
			}
		}
	}
	if injectedTotal == 0 {
		t.Fatal("no solver-unknown faults fired — the property was not exercised")
	}
	// The acceptance bar is >= 20% injected Unknowns: with the rate at
	// 0.25 and this many draws the observed fraction must clear it.
	if frac := float64(injectedTotal) / float64(drawsTotal); drawsTotal >= 100 && frac < 0.20 {
		t.Fatalf("observed injection fraction %.3f (%d/%d draws) below the 20%% bar",
			frac, injectedTotal, drawsTotal)
	}
}

// TestMetamorphicHungSolverReturnsWithinDeadline: every solver call
// stalls for 30s, the per-check deadline is 150ms — the check must come
// back within deadline + scheduling slack, undecided, and certainly not
// with a fabricated Safe or Unsafe.
func TestMetamorphicHungSolverReturnsWithinDeadline(t *testing.T) {
	prev := faults.Install(faults.New(faults.Config{
		Seed:  7,
		Rates: map[faults.Kind]float64{faults.SolverStall: 1},
		Stall: 30 * time.Second,
	}))
	defer faults.Install(prev)

	prog := loadProgram(t, "safe.mc")
	const deadline = 150 * time.Millisecond
	checker := cegar.New(prog, cegar.Options{UseSlicing: true, MaxWork: 60000, Deadline: deadline})
	for _, target := range prog.ErrorLocs() {
		start := time.Now()
		r := checker.Check(target)
		elapsed := time.Since(start)
		if elapsed > deadline+3*time.Second {
			t.Fatalf("%s: hung-solver check took %v, want <= deadline (%v) + slack", target, elapsed, deadline)
		}
		if r.Verdict.Decided() {
			t.Fatalf("%s: every solver call stalled past the deadline yet the check decided %v", target, r.Verdict)
		}
	}
}

// TestMetamorphicWorkerPanicContainment: with panics injected into the
// per-predicate entailment tasks of the abstract post, each task must
// contain its own (the check completes, the process survives) and the
// verdict may only weaken relative to the fault-free run.
func TestMetamorphicWorkerPanicContainment(t *testing.T) {
	opts := cegar.Options{UseSlicing: true, MaxWork: 60000}
	injectedTotal := int64(0)
	for _, file := range []string{"safe.mc", "overdraft.mc"} {
		prog := loadProgram(t, file)
		baseline := checkAll(t, prog, opts)
		for seed := int64(1); seed <= 3; seed++ {
			in := faults.New(faults.Config{
				Seed:  seed,
				Rates: map[faults.Kind]float64{faults.WorkerPanic: 0.3},
			})
			prev := faults.Install(in)
			faulted := checkAll(t, prog, opts)
			faults.Install(prev)
			injectedTotal += in.Injected(faults.WorkerPanic)
			for i, v := range faulted {
				if v.Decided() && baseline[i].Decided() && v != baseline[i] {
					t.Fatalf("%s check %d seed %d: verdict flipped %v -> %v under injected worker panics",
						file, i, seed, baseline[i], v)
				}
			}
		}
	}
	if injectedTotal == 0 {
		t.Fatal("no worker panics fired at a 30% injection rate — the containment path was not exercised")
	}
}
