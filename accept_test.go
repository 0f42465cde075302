package pathslice

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pathslice/internal/bench"
	"pathslice/internal/cegar"
	"pathslice/internal/obs"
	"pathslice/internal/synth"
)

// acceptProfile is the fixed Table-1-class workload the acceptance
// tests run: the privoxy-class profile at a scale where the CEGAR loop
// performs hundreds of refinement queries per cluster.
func acceptProfile() synth.Profile {
	return synth.PaperProfiles(0.2)[3] // privoxy
}

const acceptMaxWork = 30000

// TestSolverCacheReducesCallsFiveFold asserts the PR's headline
// performance criterion via the counters (not wall clock): on a fixed
// Table-1-class profile, the solver result cache plus abstract-post
// memoization cut the number of real decision-procedure runs by at
// least 5x, without changing any verdict or refinement count.
func TestSolverCacheReducesCallsFiveFold(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-1-class run")
	}
	p := acceptProfile()
	on, err := bench.RunBenchmark(p, cegar.Options{UseSlicing: true, MaxWork: acceptMaxWork})
	if err != nil {
		t.Fatal(err)
	}
	off, err := bench.RunBenchmark(p, cegar.Options{
		UseSlicing: true, MaxWork: acceptMaxWork,
		DisableSolverCache: true, DisablePostMemo: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	if on.Safe != off.Safe || on.Err != off.Err || on.Timeout != off.Timeout {
		t.Fatalf("verdicts changed: cache-on %d/%d/%d, cache-off %d/%d/%d (safe/error/timeout)",
			on.Safe, on.Err, on.Timeout, off.Safe, off.Err, off.Timeout)
	}
	if on.Refinements != off.Refinements {
		t.Fatalf("refinement counts changed: %d vs %d", on.Refinements, off.Refinements)
	}
	if on.SolverCalls == 0 || off.SolverCalls == 0 {
		t.Fatalf("counters not wired: on=%d off=%d", on.SolverCalls, off.SolverCalls)
	}
	ratio := float64(off.SolverCalls) / float64(on.SolverCalls)
	t.Logf("%s: %d solver calls without cache, %d with (%.1fx, hit rate %.0f%%, memo hits %d)",
		p.Name, off.SolverCalls, on.SolverCalls, ratio, 100*on.CacheHitRate(), on.PostMemoHits)
	if ratio < 5 {
		t.Errorf("solver-call reduction %.2fx < required 5x (on=%d, off=%d)",
			ratio, on.SolverCalls, off.SolverCalls)
	}
}

// gateWindow is how far a gated count may move from its baseline, as a
// fraction of the baseline, before TestPerformanceGates fails.
const gateWindow = 0.20

// gate is one deterministic count of the performance gate and the
// baseline it must stay near.
type gate struct {
	name      string
	got, base int64
}

// fault says how g left its window, or returns "" when it did not. A
// count above the window is a regression. A count below it fails too:
// the baseline is stale (or, for slice edges, the slice shrank), and a
// stale baseline would let a later regression of the same size pass.
func (g gate) fault() string {
	d := float64(g.got - g.base)
	if math.Abs(d) <= gateWindow*float64(g.base) {
		return ""
	}
	if d > 0 {
		return fmt.Sprintf("%s regressed: baseline %d, now %d, outside the %.0f%% window",
			g.name, g.base, g.got, 100*gateWindow)
	}
	return fmt.Sprintf("%s fell from its baseline %d to %d, outside the %.0f%% window: re-measure the baseline",
		g.name, g.base, g.got, 100*gateWindow)
}

// table1Gates runs the six Table-1 profiles at scale 0.12 sequentially
// and returns the solver calls, solver-cache lookups and CEGAR work
// against their baselines. The baselines were measured on the
// unmodified options; mod plants a change on top of them.
func table1Gates(t *testing.T, mod func(*cegar.Options)) []gate {
	t.Helper()
	opts := cegar.Options{UseSlicing: true, MaxWork: acceptMaxWork}
	if mod != nil {
		mod(&opts)
	}
	var calls, lookups, work int64
	for _, p := range synth.PaperProfiles(0.12) {
		row, err := bench.RunBenchmark(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		calls += row.SolverCalls
		lookups += row.CacheHits + row.CacheMisses
		for _, c := range row.Checks {
			work += int64(c.Work)
		}
	}
	return []gate{
		{"table1 solver calls", calls, 930},
		{"table1 solver-cache lookups", lookups, 1836},
		{"table1 work", work, 20660},
	}
}

// TestPerformanceGates holds the paper's measured quantities to
// baselines, computed from the working tree: Table 1's solver work,
// the incremental solver's early-unsat stop (§4.2), and the gcc-class
// summary sweep behind Figure 6. Every gated number is a deterministic
// count, so the gate needs no timing and no committed artifact; wall
// time is perfbench's. A planted regression proves the gate can fail.
func TestPerformanceGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-1 run")
	}
	report := func(t *testing.T, gates []gate) {
		t.Helper()
		for _, g := range gates {
			if f := g.fault(); f != "" {
				t.Error(f)
			} else {
				t.Logf("%s: %d (baseline %d)", g.name, g.got, g.base)
			}
		}
	}

	// The simplex is the solver's one refutation procedure, so its
	// pivots measure the work inside the solver calls gated above.
	t.Run("table1", func(t *testing.T) {
		reg := obs.Default()
		defer reg.SetEnabled(reg.Enabled())
		reg.SetEnabled(true)
		pivots := reg.Counter("smt_simplex_pivots_total")
		before := pivots.Value()
		gates := table1Gates(t, nil)
		report(t, append(gates, gate{"table1 simplex pivots", pivots.Value() - before, 4177}))
	})

	// Turning the abstract-post memo off moves neither solver calls
	// nor work, since the solver cache answers what the memo did; only
	// the cache lookups show it.
	t.Run("planted-post-memo-off", func(t *testing.T) {
		var faults []string
		for _, g := range table1Gates(t, func(o *cegar.Options) { o.DisablePostMemo = true }) {
			if f := g.fault(); f != "" {
				faults = append(faults, f)
			}
		}
		if len(faults) == 0 {
			t.Fatal("the gate passed Table 1 with the post memo off")
		}
		t.Logf("caught: %s", strings.Join(faults, "; "))
	})

	// 300 guards: every taken assume is one check on the warm
	// incremental solver until the x < 500 assume contradicts.
	t.Run("early-stop", func(t *testing.T) {
		prog, path, err := bench.GuardChainSetup(300)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.Default()
		defer reg.SetEnabled(reg.Enabled())
		reg.SetEnabled(true)
		counters := []gate{
			{name: "smt_incremental_reuse_total", base: 301},
			{name: "smt_warm_start_hits_total", base: 301},
			{name: "smt_warm_start_rebuilds_total", base: 0},
		}
		for i := range counters {
			counters[i].got = -reg.Counter(counters[i].name).Value()
		}
		res, err := bench.EarlyStopIncremental(prog, path)
		if err != nil {
			t.Fatal(err)
		}
		if !res.KnownInfeasible {
			t.Fatal("the incremental loop missed the unsatisfiable prefix")
		}
		for i := range counters {
			counters[i].got += reg.Counter(counters[i].name).Value()
		}
		report(t, append([]gate{{"early stop solver checks", int64(res.Stats.SolverChecks), 302}}, counters...))
	})

	// Traces of about 10k, 20k and 40k operations: summaries keep the
	// walk sublinear in trace length, and the streamed reader keeps
	// its bounded window of 4 blocks of 1024 frames.
	t.Run("summary-sweep", func(t *testing.T) {
		rows, err := bench.SummarySweep(bench.DefaultGccConfig(), []int{43, 86, 172})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if r.StreamPeakFrames > 4096 {
				t.Errorf("%d-op trace held %d frames resident, window is 4096", r.TraceOps, r.StreamPeakFrames)
			}
			if i == 0 {
				continue
			}
			prev := rows[i-1]
			if ops := float64(r.TraceOps) / float64(prev.TraceOps); ops < 1.7 || ops > 2.3 {
				t.Errorf("trace ops %d -> %d scale by %.2fx, want a doubling", prev.TraceOps, r.TraceOps, ops)
				continue
			}
			growth := float64(r.SummarizedWalked) / float64(prev.SummarizedWalked)
			t.Logf("%d -> %d ops: summarized walked %d -> %d (%.2fx per doubling)",
				prev.TraceOps, r.TraceOps, prev.SummarizedWalked, r.SummarizedWalked, growth)
			if growth >= 1.8 {
				t.Errorf("summarized walked edges grew %.2fx per doubling (%d -> %d), want < 1.8x",
					growth, prev.SummarizedWalked, r.SummarizedWalked)
			}
		}
		last := rows[len(rows)-1]
		report(t, []gate{
			{"sweep walked edges at 40k", int64(last.SummarizedWalked), 1266},
			{"sweep slice edges at 40k", int64(last.SliceEdges), 9292},
		})
	})
}

// TestParallelBenchmarkDeterminism asserts that parallel cluster
// checking yields identical verdicts, refinement counts, work, and
// per-counterexample slice statistics to a sequential run on the same
// fixed synth profile.
func TestParallelBenchmarkDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-1-class run")
	}
	p := acceptProfile()
	seq, err := bench.RunBenchmark(p, cegar.Options{UseSlicing: true, MaxWork: acceptMaxWork})
	if err != nil {
		t.Fatal(err)
	}
	par, err := bench.RunBenchmarkParallel(p, cegar.Options{UseSlicing: true, MaxWork: acceptMaxWork}, 4)
	if err != nil {
		t.Fatal(err)
	}

	if seq.Safe != par.Safe || seq.Err != par.Err || seq.Timeout != par.Timeout {
		t.Fatalf("verdicts diverged: sequential %d/%d/%d, parallel %d/%d/%d",
			seq.Safe, seq.Err, seq.Timeout, par.Safe, par.Err, par.Timeout)
	}
	if seq.Refinements != par.Refinements {
		t.Errorf("refinements diverged: %d vs %d", seq.Refinements, par.Refinements)
	}
	if len(seq.Checks) != len(par.Checks) {
		t.Fatalf("check counts diverged: %d vs %d", len(seq.Checks), len(par.Checks))
	}
	for i := range seq.Checks {
		s, q := seq.Checks[i], par.Checks[i]
		if s.Cluster != q.Cluster || s.Verdict != q.Verdict || s.Work != q.Work || s.Refinements != q.Refinements {
			t.Errorf("cluster %s: sequential (%s, work %d, ref %d) vs parallel (%s, work %d, ref %d)",
				s.Cluster, s.Verdict, s.Work, s.Refinements, q.Verdict, q.Work, q.Refinements)
		}
		if len(s.Traces) != len(q.Traces) {
			t.Errorf("cluster %s: trace counts %d vs %d", s.Cluster, len(s.Traces), len(q.Traces))
			continue
		}
		for j := range s.Traces {
			if s.Traces[j] != q.Traces[j] {
				t.Errorf("cluster %s trace %d: %+v vs %+v", s.Cluster, j, s.Traces[j], q.Traces[j])
			}
		}
	}
}
