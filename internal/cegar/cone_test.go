package cegar_test

import (
	"fmt"
	"sort"
	"testing"

	"pathslice/internal/bench"
	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/instrument"
	"pathslice/internal/lang/types"
	"pathslice/internal/synth"
)

// namedProgram is one program the entailment cross-check runs.
type namedProgram struct {
	name string
	prog *cfa.Program
}

// entailmentPrograms returns determinismPrograms and every cluster of
// the Table-1 profiles at scale 0.12, generated at three seeds: the
// paper's and two shifted by 1000 and 2000.
func entailmentPrograms(t *testing.T) []namedProgram {
	t.Helper()
	var out []namedProgram
	names := make([]string, 0, len(determinismPrograms))
	for name := range determinismPrograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, namedProgram{name, compile.MustSource(determinismPrograms[name])})
	}
	for _, shift := range []int64{0, 1000, 2000} {
		for _, p := range synth.PaperProfiles(0.12) {
			p.Seed += shift
			ins, err := bench.CompileProfile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, cl := range ins.Clusters {
				ast, err := instrument.ForCluster(ins.Prog, cl.Function)
				if err != nil {
					t.Fatal(err)
				}
				info, err := types.Check(ast)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := cfa.Build(info)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, namedProgram{fmt.Sprintf("%s/%d/%s", p.Name, p.Seed, cl.Function), prog})
			}
		}
	}
	return out
}

// crossCheck runs every check of np, deciding each entailment and
// prune both with the frame rule and the cones and on the full
// uncached query. plant, when non-nil, plants a wrong rule first.
func crossCheck(np namedProgram, plant func(*cegar.Checker)) cegar.EntailTally {
	var tally cegar.EntailTally
	c := cegar.New(np.prog, cegar.Options{UseSlicing: true})
	cegar.CrossCheckEntailments(c, &tally)
	if plant != nil {
		plant(c)
	}
	for _, loc := range np.prog.ErrorLocs() {
		c.Check(loc)
	}
	return tally
}

// TestFrameRuleAndConeMatchFullQuery: the abstract post decides each
// entailment with the frame rule or on the cone of the precondition,
// and each prune on the assume's cone. The rules are exact, so every
// value and every prune must equal the one the full precondition
// gives.
func TestFrameRuleAndConeMatchFullQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("decides every Table-1 entailment twice")
	}
	var total cegar.EntailTally
	for _, np := range entailmentPrograms(t) {
		tally := crossCheck(np, nil)
		if tally.Disagreed > 0 || tally.PrunesDisagreed > 0 {
			t.Errorf("%s: %d of %d entailments and %d of %d prunes disagree with the full query",
				np.name, tally.Disagreed, tally.Checked, tally.PrunesDisagreed, tally.PrunesChecked)
		}
		total.Checked += tally.Checked
		total.Disagreed += tally.Disagreed
		total.PrunesChecked += tally.PrunesChecked
		total.PrunesDisagreed += tally.PrunesDisagreed
	}
	t.Logf("%d entailments and %d prunes cross-checked, %d and %d disagreements",
		total.Checked, total.PrunesChecked, total.Disagreed, total.PrunesDisagreed)
	if total.Checked < 10000 || total.PrunesChecked < 1000 {
		t.Errorf("only %d entailments and %d prunes cross-checked; the corpus no longer exercises the post",
			total.Checked, total.PrunesChecked)
	}
}

// TestOverEagerConeIsCaught: each planted rule is wrong, and the
// cross-check must see it — a cone that leaves out one connected
// conjunct, copying undetermined values across assumes and a component
// called Sat without a solve in the entailments, a prune query that
// leaves out one connected literal in the prunes.
func TestOverEagerConeIsCaught(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plant  func(*cegar.Checker)
		caught func(cegar.EntailTally) int
	}{
		{"over-eager cone", cegar.PlantOverEagerCone, func(t cegar.EntailTally) int { return t.Disagreed }},
		{"undetermined values copied across assumes", cegar.PlantCopyUndetermined, func(t cegar.EntailTally) int { return t.Disagreed }},
		{"over-eager prune cone", cegar.PlantOverEagerGuardCone, func(t cegar.EntailTally) int { return t.PrunesDisagreed }},
		{"undecided last component", cegar.PlantSkipLastComponent, func(t cegar.EntailTally) int { return t.Disagreed }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, np := range entailmentPrograms(t) {
				if tally := crossCheck(np, tc.plant); tc.caught(tally) > 0 {
					t.Logf("%s: %d of %d entailments and %d of %d prunes disagree", np.name,
						tally.Disagreed, tally.Checked, tally.PrunesDisagreed, tally.PrunesChecked)
					return
				}
			}
			t.Fatalf("the planted %s went unnoticed", tc.name)
		})
	}
}
