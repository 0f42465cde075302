package oracle

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
)

func mustPair(t *testing.T, src string) (*cfa.Program, cfa.Path) {
	t.Helper()
	prog, err := compile.Source(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	if path == nil {
		t.Fatal("no path to error")
	}
	return prog, path
}

func checkClean(t *testing.T, prog *cfa.Program, path cfa.Path, sopts core.Options) *Report {
	t.Helper()
	rep := CheckTrace(prog, path, sopts, CheckOptions{ReachCheck: true})
	for _, v := range rep.Violations {
		t.Errorf("unexpected violation: %s", v)
	}
	return rep
}

func checkCaught(t *testing.T, prog *cfa.Program, path cfa.Path, mode core.UnsoundMode, wantKind string) {
	t.Helper()
	rep := CheckTrace(prog, path, core.Options{Unsound: mode}, CheckOptions{ReachCheck: true})
	for _, v := range rep.Violations {
		if v.Kind == wantKind {
			return
		}
	}
	t.Fatalf("unsound mode %d not caught (want %q): violations=%v inconclusive=%v",
		mode, wantKind, rep.Violations, rep.Inconclusive)
}

// The canonical alias-soundness witness: dropping the may-aliased write
// *p = 5 leaves a slice {a = 3; assume(a == 5)} that is Unsat while the
// full trace is Sat.
const aliasSrc = `
	int a; int *p;
	void main() {
		a = 3;
		p = &a;
		*p = 5;
		if (a == 5) { error; }
	}`

func TestCheckTraceCleanOnCorrectSlicer(t *testing.T) {
	prog, path := mustPair(t, aliasSrc)
	rep := checkClean(t, prog, path, core.Options{})
	if rep.SliceStatus.String() != "sat" {
		t.Errorf("alias program is feasible, got slice status %v", rep.SliceStatus)
	}
}

func TestOracleCatchesDroppedAliasedWrites(t *testing.T) {
	prog, path := mustPair(t, aliasSrc)
	checkCaught(t, prog, path, core.UnsoundDropAliasedWrites, "soundness")
}

func TestOracleCatchesSkippedCallees(t *testing.T) {
	prog, path := mustPair(t, `
		int g;
		void setg() { g = 1; }
		void main() {
			g = 5;
			setg();
			if (g == 1) { error; }
		}`)
	checkClean(t, prog, path, core.Options{})
	checkCaught(t, prog, path, core.UnsoundSkipCallees, "soundness")
}

func TestOracleCatchesDroppedGuards(t *testing.T) {
	prog, path := mustPair(t, `
		int a; int b;
		void main() {
			a = nondet();
			b = 1;
			if (b > 2) {
				if (a == 3) { error; }
			}
		}`)
	checkClean(t, prog, path, core.Options{})
	checkCaught(t, prog, path, core.UnsoundDropGuards, "completeness")
}

func TestCheckTraceEarlyStopDifferential(t *testing.T) {
	// Contradictory guards: the incremental early-stop check fires on
	// the second assume (backward) and proves the prefix Unsat; the
	// stateless solver must agree, and the oracle must not flag it.
	prog, path := mustPair(t, `
		int a;
		void main() {
			a = nondet();
			if (a > 5) {
				if (a < 3) { error; }
			}
		}`)
	rep := checkClean(t, prog, path, core.Options{EarlyUnsatStop: true})
	if rep.Res == nil || !rep.Res.KnownInfeasible {
		t.Fatal("early-stop should prove this slice infeasible")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		spec := RandomSpec(rng)
		line := SpecString(spec)
		back, err := ParseSpec(line)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", line, err)
		}
		if back != spec {
			t.Fatalf("round trip changed the spec:\n  in:  %+v\n  out: %+v", spec, back)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	if _, err := ParseSpec("seed=1 bogus=2"); err == nil {
		t.Error("unknown key must be rejected")
	}
	if _, err := ParseSpec("seed=x"); err == nil {
		t.Error("non-integer value must be rejected")
	}
}

func TestRenderedSpecsCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := StarterSpecs()
	for i := 0; i < 60; i++ {
		specs = append(specs, RandomSpec(rng))
	}
	for _, spec := range specs {
		for _, opts := range []renderOpts{{}, {rename: true}, {junkExtra: 2}, {permute: true}, {unroll: true}} {
			src := Render(spec, opts)
			prog, err := compile.Source(src)
			if err != nil {
				t.Fatalf("spec %s (opts %+v) does not compile: %v\n%s", SpecString(spec), opts, err, src)
			}
			// Call-heavy specs re-enter the shared chain body CallRepeat
			// times, which the finder's default per-edge use budget of 2
			// cannot cover (same adjustment the campaign makes).
			uses := 0
			if spec.CallRepeat > 0 {
				uses = spec.CallRepeat + 2
			}
			if cfa.FindPathToError(prog, cfa.FindOptions{MaxEdgeUses: uses}) == nil {
				t.Fatalf("spec %s (opts %+v): error unreachable", SpecString(spec), opts)
			}
		}
	}
}

func TestBruteAgreesOnTinyTrace(t *testing.T) {
	prog, path := mustPair(t, `
		int a; int b;
		void main() {
			a = 4;
			b = 7;
			if (a == 4) { error; }
		}`)
	slicer := core.New(prog)
	res, err := slicer.Slice(path)
	if err != nil {
		t.Fatal(err)
	}
	fr, _ := slicer.CheckFeasibility(path)
	br := BruteCompare(prog, path, res, fr.Status, 1, BruteOptions{})
	if !br.Ran {
		t.Fatalf("path of %d edges should be brute-enumerable", len(path))
	}
	for _, v := range br.Violations {
		t.Errorf("unexpected brute violation: %s", v)
	}
	if br.MinSize < 0 {
		t.Fatalf("minimal size undecided: %v", br.Inconclusive)
	}
	if br.MinSize > br.ProdSize {
		t.Errorf("minimal %d > production %d", br.MinSize, br.ProdSize)
	}
}

func TestMetamorphicInvariantsHold(t *testing.T) {
	for _, spec := range StarterSpecs() {
		mr := CheckMetamorphic(spec, core.Options{}, CheckOptions{ReachCheck: true})
		for _, v := range mr.Violations {
			t.Errorf("spec %s: %s", SpecString(spec), v)
		}
	}
}

func TestCampaignSmokeClean(t *testing.T) {
	stats := Run(Config{Seeds: 24, Budget: 60 * time.Second, Seed: 5})
	if len(stats.Violations) != 0 {
		for _, v := range stats.Violations {
			t.Errorf("violation: %s", v)
		}
	}
	if stats.Pairs < 24 {
		t.Errorf("campaign checked only %d pairs", stats.Pairs)
	}
	if stats.CoverageEdges < 5 {
		t.Errorf("coverage fingerprints too uniform: %d", stats.CoverageEdges)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := Config{Seeds: 10, Budget: 60 * time.Second, Seed: 9}
	a, b := Run(cfg), Run(cfg)
	if a.Pairs != b.Pairs || a.Programs != b.Programs || a.CoverageEdges != b.CoverageEdges {
		t.Errorf("same config diverged: %s vs %s", a.Summary(), b.Summary())
	}
}

func TestCampaignCatchesUnsoundModes(t *testing.T) {
	modes := []core.UnsoundMode{
		core.UnsoundDropGuards,
		core.UnsoundDropAliasedWrites,
		core.UnsoundSkipCallees,
	}
	for _, mode := range modes {
		stats := Run(Config{Seeds: 40, Budget: 60 * time.Second, Seed: 3, Unsound: mode})
		if len(stats.Violations) == 0 {
			t.Errorf("unsound mode %d survived a %d-seed campaign (%s)", mode, stats.Seeds, stats.Summary())
		}
	}
}

func TestLoadCorpusMissingDirIsEmpty(t *testing.T) {
	if specs := LoadCorpus("does/not/exist"); len(specs) != 0 {
		t.Errorf("got %d specs from a missing dir", len(specs))
	}
	if specs := LoadCorpus(""); specs != nil {
		t.Error("empty dir must load nothing")
	}
}

func TestSummaryMentionsKeyStats(t *testing.T) {
	s := &Stats{Seeds: 3, Pairs: 9, BruteTraces: 2, BruteAgree: 1}
	out := s.Summary()
	for _, want := range []string{"3 seeds", "9 pairs", "1/2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
}
