package cegar_test

import (
	"testing"

	"pathslice/internal/cegar"
	"pathslice/internal/compile"
)

// determinismPrograms exercise refinement loops, pruned branches, call
// stacks (localization scopes), and feasible bugs — every abstract-post
// code path the solver cache and post memo touch.
var determinismPrograms = map[string]string{
	"loop-guard": `
		int x;
		int a;
		void f() { skip; }
		void main() {
			for (int i = 1; i <= 20; i = i + 1) { f(); }
			if (a >= 0) {
				if (x == 0) { error; }
			}
		}`,
	"safe-increment": `
		int x;
		void main() {
			x = 0;
			x = x + 1;
			x = x + 1;
			if (x == 0) { error; }
		}`,
	"call-chain": `
		int g;
		void sink() {
			if (g == 1) {
				if (g == 2) { error; }
			}
		}
		void level1(int k) {
			int t = k + 1;
			if (t > 0) { sink(); }
		}
		void level0(int k) {
			int t = k + 1;
			if (t > 0) { level1(t); }
		}
		void main() {
			g = 1;
			level0(1);
		}`,
	"nondet-bug": `
		int a;
		void main() {
			a = nondet();
			if (a > 10) {
				if (a < 20) { error; }
			}
		}`,
}

func summarize(r *cegar.Result) [4]int {
	return [4]int{int(r.Verdict), r.Refinements, r.Work, r.Predicates}
}

// TestCacheMemoPostDeterminism verifies that the solver cache and the
// abstract-post memo are pure accelerators: with either or both turned
// off, a check produces identical verdicts, refinement counts, work,
// predicates, per-trace slice statistics, and witness to the default.
func TestCacheMemoPostDeterminism(t *testing.T) {
	for name, src := range determinismPrograms {
		t.Run(name, func(t *testing.T) {
			prog := compile.MustSource(src)
			target := prog.ErrorLocs()[0]
			base := cegar.New(prog, cegar.Options{UseSlicing: true}).Check(target)
			variants := map[string]cegar.Options{
				"nocache":        {UseSlicing: true, DisableSolverCache: true},
				"nomemo":         {UseSlicing: true, DisablePostMemo: true},
				"nocache-nomemo": {UseSlicing: true, DisableSolverCache: true, DisablePostMemo: true},
			}
			for vn, opts := range variants {
				got := cegar.New(prog, opts).Check(target)
				if summarize(got) != summarize(base) {
					t.Errorf("%s: result diverged: got %v, want %v", vn, summarize(got), summarize(base))
				}
				if len(got.Traces) != len(base.Traces) {
					t.Errorf("%s: trace count %d != %d", vn, len(got.Traces), len(base.Traces))
					continue
				}
				for i := range got.Traces {
					if got.Traces[i] != base.Traces[i] {
						t.Errorf("%s: trace %d: got %+v, want %+v", vn, i, got.Traces[i], base.Traces[i])
					}
				}
				if got.Witness.String() != base.Witness.String() {
					t.Errorf("%s: witness slice diverged", vn)
				}
			}
		})
	}
}

// TestSolverCacheCountsCalls verifies the counters: with the cache and
// memo enabled (the default) the hot loop issues strictly fewer real
// decision-procedure calls than with both disabled, at identical
// verdicts, and the hit/miss counters are coherent.
func TestSolverCacheCountsCalls(t *testing.T) {
	src := determinismPrograms["loop-guard"]
	prog := compile.MustSource(src)
	target := prog.ErrorLocs()[0]

	on := cegar.New(prog, cegar.Options{UseSlicing: true}).Check(target)
	off := cegar.New(prog, cegar.Options{
		UseSlicing: true, DisableSolverCache: true, DisablePostMemo: true,
	}).Check(target)

	if on.Verdict != off.Verdict || on.Refinements != off.Refinements {
		t.Fatalf("verdicts diverged: cache-on %s/%d, cache-off %s/%d",
			on.Verdict, on.Refinements, off.Verdict, off.Refinements)
	}
	if off.SolverCalls == 0 || on.SolverCalls == 0 {
		t.Fatalf("expected nonzero solver calls (on %d, off %d)", on.SolverCalls, off.SolverCalls)
	}
	if on.SolverCalls >= off.SolverCalls {
		t.Errorf("cache should reduce solver calls: on %d >= off %d", on.SolverCalls, off.SolverCalls)
	}
	if on.SolverCalls != on.CacheMisses {
		t.Errorf("with the cache on, SolverCalls (%d) must equal CacheMisses (%d)", on.SolverCalls, on.CacheMisses)
	}
	if off.CacheHits != 0 || off.CacheMisses != 0 || off.PostMemoHits != 0 {
		t.Errorf("disabled run must report zero cache counters, got %d/%d/%d",
			off.CacheHits, off.CacheMisses, off.PostMemoHits)
	}
	if on.CacheHits == 0 {
		t.Error("expected cache hits during refinement iterations")
	}
}

// TestMemoSurvivesRefinement checks that abstract-post memo entries are
// reused across refinement iterations: a check that refines at least
// once must report memo hits.
func TestMemoSurvivesRefinement(t *testing.T) {
	prog := compile.MustSource(determinismPrograms["safe-increment"])
	target := prog.ErrorLocs()[0]
	r := cegar.New(prog, cegar.Options{UseSlicing: true}).Check(target)
	if r.Verdict != cegar.VerdictSafe {
		t.Fatalf("verdict: %s", r.Verdict)
	}
	if r.Refinements == 0 {
		t.Fatal("workload needs at least one refinement to exercise the memo")
	}
	if r.PostMemoHits == 0 {
		t.Error("expected post-memo hits across refinement iterations")
	}
}
