// Package pathslice's root benchmark suite regenerates the paper's
// evaluation artifacts as testing.B benchmarks:
//
//   - BenchmarkTable1_* : one per Table 1 row (per-cluster CEGAR check)
//   - BenchmarkFigure5_Slicing : slice application-class counterexamples
//   - BenchmarkFigure6_GccSlicing : slice gcc-class huge counterexamples
//   - BenchmarkAblation_* : the design-choice ablations of DESIGN.md §4
//
// Run `go test -bench=. -benchmem` at the repo root, or
// `go run ./cmd/experiments` for the rendered table and figures.
package pathslice

import (
	"fmt"
	"testing"

	"pathslice/internal/bench"
	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/instrument"
	"pathslice/internal/lang/types"
	"pathslice/internal/progslice"
	"pathslice/internal/smt"
	"pathslice/internal/synth"
)

// table1Setup compiles one scaled Table 1 profile and returns its
// instrumented program.
func table1Setup(b *testing.B, idx int, scale float64) *instrument.Result {
	b.Helper()
	p := synth.PaperProfiles(scale)[idx]
	ins, err := bench.CompileProfile(p)
	if err != nil {
		b.Fatal(err)
	}
	return ins
}

// benchTable1Row measures a full per-cluster check pass over one row's
// program (the unit of the paper's Total time column).
func benchTable1Row(b *testing.B, idx int) {
	p := synth.PaperProfiles(0.12)[idx]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunBenchmark(p, cegar.Options{UseSlicing: true, MaxWork: 30000})
		if err != nil {
			b.Fatal(err)
		}
		if res.Clusters == 0 {
			b.Fatal("no clusters")
		}
	}
}

func BenchmarkTable1_Fcron(b *testing.B)   { benchTable1Row(b, 0) }
func BenchmarkTable1_Wuftpd(b *testing.B)  { benchTable1Row(b, 1) }
func BenchmarkTable1_Make(b *testing.B)    { benchTable1Row(b, 2) }
func BenchmarkTable1_Privoxy(b *testing.B) { benchTable1Row(b, 3) }
func BenchmarkTable1_Ijpeg(b *testing.B)   { benchTable1Row(b, 4) }
func BenchmarkTable1_Openssh(b *testing.B) { benchTable1Row(b, 5) }

// compiledProfile builds the CFA program of an instrumented profile.
func compiledProfile(b *testing.B, ins *instrument.Result) *cfa.Program {
	b.Helper()
	info, err := types.Check(ins.Prog)
	if err != nil {
		b.Fatal(err)
	}
	cprog, err := cfa.Build(info)
	if err != nil {
		b.Fatal(err)
	}
	return cprog
}

// BenchmarkFigure5_Slicing measures slicing application-class
// counterexample traces of mixed sizes (the Figure 5 workload).
func BenchmarkFigure5_Slicing(b *testing.B) {
	ins := table1Setup(b, 1, 0.15) // wuftpd-class
	cprog := compiledProfile(b, ins)
	slicer := core.New(cprog)
	var paths []cfa.Path
	for _, loc := range cprog.ErrorLocs() {
		for _, k := range []int{2, 8, 32} {
			if p := cfa.WalkLongPath(cprog, loc, k, 0); p != nil {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) == 0 {
		b.Fatal("no paths")
	}
	totalEdges := 0
	for _, p := range paths {
		totalEdges += len(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range paths {
			if _, err := slicer.Slice(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(totalEdges), "trace-edges/op")
}

// BenchmarkFigure6_GccSlicing measures slicing one huge gcc-class
// counterexample (the Figure 6 regime: tens of thousands of blocks).
func BenchmarkFigure6_GccSlicing(b *testing.B) {
	p := synth.GccProfile(0.1)
	ins, err := bench.CompileProfile(p)
	if err != nil {
		b.Fatal(err)
	}
	cprog := compiledProfile(b, ins)
	var path cfa.Path
	for _, loc := range cprog.ErrorLocs() {
		if path = cfa.WalkLongPath(cprog, loc, 512, 0); path != nil {
			break
		}
	}
	if path == nil {
		b.Fatal("no long path")
	}
	slicer := core.New(cprog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := slicer.Slice(path)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.InputBlocks), "trace-blocks")
			b.ReportMetric(float64(res.Stats.SliceBlocks), "slice-blocks")
		}
	}
}

// BenchmarkSummarizedSlice measures the context-keyed frame summaries
// (internal/summ) on the call-heavy gcc-class subject: a ~40k-op trace
// of deep repeated call chains, sliced plain and summarized. The
// walked-edge metrics expose the deterministic work reduction the
// wall-time ratio comes from; `make bench-json` records the full
// 10k/20k/40k doubling sweep in BENCH_PR6.json.
func BenchmarkSummarizedSlice(b *testing.B) {
	prog, target, err := bench.CallHeavySetup(bench.DefaultGccConfig())
	if err != nil {
		b.Fatal(err)
	}
	path := cfa.WalkLongPath(prog, target, 172, 0)
	if path == nil {
		b.Fatal("no long path")
	}
	for _, summaries := range []bool{false, true} {
		name := "plain"
		if summaries {
			name = "summarized"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				slicer := core.NewWithOptions(prog, core.Options{Summaries: summaries})
				res, err := slicer.Slice(path)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(path)), "trace-ops")
					b.ReportMetric(float64(res.Stats.WalkedEdges), "walked-edges")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)

// deepChainProgram has a deep call stack of guards in front of an
// infeasible check — the workload for the §4.2 optimizations.
func deepChainProgram(depth int) string {
	src := "int g;\n"
	src += "void sink() {\n  if (g == 1) {\n    if (g == 2) {\n      error;\n    }\n  }\n}\n"
	for d := depth - 1; d >= 0; d-- {
		callee := "sink()"
		if d != depth-1 {
			callee = fmt.Sprintf("level%d(t)", d+1)
		}
		src += fmt.Sprintf("void level%d(int k) {\n  int t = k + 1;\n  if (t > 0) {\n    %s;\n  }\n}\n", d, callee)
	}
	src += "void main() {\n  g = 1;\n  level0(1);\n}\n"
	return src
}

// BenchmarkAblation_EarlyStop compares slicing an infeasible path with
// and without the early-unsat-stop optimization.
func BenchmarkAblation_EarlyStop(b *testing.B) {
	prog := compile.MustSource(deepChainProgram(12))
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	if path == nil {
		b.Fatal("no path")
	}
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"off", core.Options{}},
		{"on", core.Options{EarlyUnsatStop: true}},
		{"on-every-4", core.Options{EarlyUnsatStop: true, CheckEvery: 4}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			slicer := core.NewWithOptions(prog, cfg.opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := slicer.Slice(path)
				if err != nil {
					b.Fatal(err)
				}
				// Without early stop, prove infeasibility afterwards —
				// the end-to-end cost being compared.
				if !res.KnownInfeasible {
					if r, _ := slicer.CheckFeasibility(res.Slice); r.Status != smt.StatusUnsat {
						b.Fatal("expected unsat")
					}
				}
			}
		})
	}
}

// BenchmarkAblation_SkipFunctions compares slice sizes and time with
// the function-skipping optimization on deep guard chains.
func BenchmarkAblation_SkipFunctions(b *testing.B) {
	prog := compile.MustSource(deepChainProgram(16))
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"off", core.Options{}},
		{"on", core.Options{SkipFunctions: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			slicer := core.NewWithOptions(prog, cfg.opts)
			var edges int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := slicer.Slice(path)
				if err != nil {
					b.Fatal(err)
				}
				edges = res.Stats.SliceEdges
			}
			b.ReportMetric(float64(edges), "slice-edges")
		})
	}
}

// BenchmarkAblation_WrBtCache compares cached WrBt/By queries (shared
// dataflow.Info across paths) against recomputing the fixpoints per
// path — the §4.1 design choice of keeping queries intraprocedural and
// cacheable.
func BenchmarkAblation_WrBtCache(b *testing.B) {
	ins := table1Setup(b, 0, 0.15)
	cprog := compiledProfile(b, ins)
	var paths []cfa.Path
	for _, loc := range cprog.ErrorLocs() {
		if p := cfa.WalkLongPath(cprog, loc, 8, 0); p != nil {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		b.Fatal("no paths")
	}
	b.Run("shared", func(b *testing.B) {
		slicer := core.New(cprog)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range paths {
				if _, err := slicer.Slice(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fresh-per-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range paths {
				slicer := core.New(cprog) // recomputes alias/modref/fixpoints
				if _, err := slicer.Slice(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblation_SolverCache compares end-to-end Table-1-class
// checking with the solver result cache and abstract-post memo enabled
// (the default) against both disabled, and with the per-predicate
// parallel post on top. Verdicts and work counts are identical in every
// configuration; only the number of real decision-procedure runs — and
// hence the wall clock — changes.
func BenchmarkAblation_SolverCache(b *testing.B) {
	p := synth.PaperProfiles(0.2)[3] // privoxy-class, same as accept_test.go
	for _, cfg := range []struct {
		name    string
		opts    cegar.Options
		workers int
	}{
		{"cache+memo", cegar.Options{UseSlicing: true, MaxWork: 30000}, 1},
		{"no-cache", cegar.Options{UseSlicing: true, MaxWork: 30000,
			DisableSolverCache: true, DisablePostMemo: true}, 1},
		{"cache+memo+4workers", cegar.Options{UseSlicing: true, MaxWork: 30000,
			SolverWorkers: 4}, 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var calls int64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunBenchmarkParallel(p, cfg.opts, cfg.workers)
				if err != nil {
					b.Fatal(err)
				}
				calls = res.SolverCalls
			}
			b.ReportMetric(float64(calls), "solver-calls")
		})
	}
}

// BenchmarkAblation_CegarSlicing compares end-to-end checking with and
// without path slicing in the counterexample analysis phase — the
// paper's headline systems claim.
func BenchmarkAblation_CegarSlicing(b *testing.B) {
	src := `
		int x;
		int a;
		void f() { skip; }
		void main() {
			for (int i = 1; i <= 30; i = i + 1) { f(); }
			if (a >= 0) {
				if (x == 0) { error; }
			}
		}`
	prog := compile.MustSource(src)
	target := prog.ErrorLocs()[0]
	for _, cfg := range []struct {
		name string
		opts cegar.Options
	}{
		{"with-slicing", cegar.Options{UseSlicing: true, MaxWork: 100000}},
		{"no-slicing", cegar.Options{UseSlicing: false, MaxWork: 100000, MaxRefinements: 10}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var work int
			for i := 0; i < b.N; i++ {
				r := cegar.New(prog, cfg.opts).Check(target)
				work = r.Work
			}
			b.ReportMetric(float64(work), "work-units")
		})
	}
}

// BenchmarkAblation_Covering compares subsumption-based covering (lazy
// abstraction's standard relation) against exact-match covering in the
// abstract reachability.
func BenchmarkAblation_Covering(b *testing.B) {
	src := `
		int a; int b; int c;
		void main() {
			a = nondet();
			b = nondet();
			c = 0;
			if (a > 0) { c = c + 1; }
			if (b > 0) { c = c + 1; }
			if (a > 0) { if (b > 0) { if (c == 0) { error; } } }
		}`
	prog := compile.MustSource(src)
	target := prog.ErrorLocs()[0]
	for _, cfg := range []struct {
		name string
		opts cegar.Options
	}{
		{"subsumption", cegar.Options{UseSlicing: true}},
		{"exact", cegar.Options{UseSlicing: true, ExactCover: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var work int
			for i := 0; i < b.N; i++ {
				r := cegar.New(prog, cfg.opts).Check(target)
				if r.Verdict != cegar.VerdictSafe {
					b.Fatalf("verdict: %s", r.Verdict)
				}
				work = r.Work
			}
			b.ReportMetric(float64(work), "work-units")
		})
	}
}

// BenchmarkAblation_Localization compares per-scope predicate
// evaluation against evaluating every predicate everywhere, on a
// file-property check with several helper functions.
func BenchmarkAblation_Localization(b *testing.B) {
	p := synth.PaperProfiles(0.12)[0]
	for _, cfg := range []struct {
		name string
		opts cegar.Options
	}{
		{"localized", cegar.Options{UseSlicing: true, MaxWork: 30000}},
		{"global", cegar.Options{UseSlicing: true, MaxWork: 30000, NoLocalize: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := bench.RunBenchmark(p, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Clusters == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}

// BenchmarkBaseline_StaticSlice measures the static program slicer on
// the same program, for the Ex1-style comparison.
func BenchmarkBaseline_StaticSlice(b *testing.B) {
	ins := table1Setup(b, 0, 0.15)
	cprog := compiledProfile(b, ins)
	target := cprog.ErrorLocs()[0]
	s := progslice.New(cprog)
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := s.Slice(target)
		ratio = res.Ratio()
	}
	b.ReportMetric(100*ratio, "retained-%")
}

// BenchmarkSolver_TraceFormula measures deciding a mid-sized trace
// formula — the decision-procedure load of §4.2.
func BenchmarkSolver_TraceFormula(b *testing.B) {
	ins := table1Setup(b, 1, 0.15)
	cprog := compiledProfile(b, ins)
	var path cfa.Path
	for _, loc := range cprog.ErrorLocs() {
		if path = cfa.WalkLongPath(cprog, loc, 4, 0); path != nil {
			break
		}
	}
	if path == nil {
		b.Fatal("no path")
	}
	slicer := core.New(cprog)
	res, err := slicer.Slice(path)
	if err != nil {
		b.Fatal(err)
	}
	f := slicer.TraceFormula(res.Slice)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := smt.Solve(f)
		if r.Status == smt.StatusUnknown {
			b.Fatal("unknown")
		}
	}
}

// BenchmarkAnalyses_Setup measures the precomputation (alias, mod-ref,
// reachability fixpoints) amortized across a whole check — the cost the
// paper's gcc experiment identifies as dominant ("the time was
// dominated by the computation of By and WrBt").
func BenchmarkAnalyses_Setup(b *testing.B) {
	p := synth.GccProfile(0.08)
	ins, err := bench.CompileProfile(p)
	if err != nil {
		b.Fatal(err)
	}
	cprog := compiledProfile(b, ins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(cprog)
	}
}

// BenchmarkEarlyUnsatStop measures the §4.2 early-stop loop both ways
// over the same guard-chain path (≥300 taken assumes before the
// contradicting operation is reached): "incremental" is the production
// slicer loop — assert the delta, check — and "scratch-loop" is the
// pre-incremental baseline that re-solves the whole asserted prefix at
// every check. The acceptance bar for the incremental engine is ≥3×
// on this shape; see docs/PERFORMANCE.md for recorded numbers.
func BenchmarkEarlyUnsatStop(b *testing.B) {
	prog, path, err := bench.GuardChainSetup(300)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := bench.EarlyStopIncremental(prog, path)
			if err != nil {
				b.Fatal(err)
			}
			if !res.KnownInfeasible {
				b.Fatal("early stop missed the unsatisfiable prefix")
			}
			if res.Stats.SolverChecks < 200 {
				b.Fatalf("only %d solver checks; want a ≥200-assume trace", res.Stats.SolverChecks)
			}
		}
	})
	b.Run("scratch-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bench.EarlyStopScratch(prog, path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
