package pathslice

import (
	"testing"

	"pathslice/internal/bench"
	"pathslice/internal/cegar"
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
