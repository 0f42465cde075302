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
// the Table-1 profiles at scale 0.12, generated at two seeds: the
// paper's and one shifted by 1000.
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
	for _, shift := range []int64{0, 1000} {
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

// crossCheck runs every check of np, deciding each entailment both
// with the frame rule and the cone and on the full uncached query.
func crossCheck(np namedProgram, plant bool) cegar.EntailTally {
	var tally cegar.EntailTally
	c := cegar.New(np.prog, cegar.Options{UseSlicing: true})
	cegar.CrossCheckEntailments(c, &tally)
	if plant {
		cegar.PlantOverEagerCone(c)
	}
	for _, loc := range np.prog.ErrorLocs() {
		c.Check(loc)
	}
	return tally
}

// TestFrameRuleAndConeMatchFullQuery: the abstract post decides each
// entailment with the frame rule or on the cone of the precondition.
// Both rules are exact, so every value must equal the one the full
// precondition gives.
func TestFrameRuleAndConeMatchFullQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("decides every Table-1 entailment twice")
	}
	var total cegar.EntailTally
	for _, np := range entailmentPrograms(t) {
		tally := crossCheck(np, false)
		if tally.Disagreed > 0 {
			t.Errorf("%s: %d of %d entailments disagree with the full query", np.name, tally.Disagreed, tally.Checked)
		}
		total.Checked += tally.Checked
		total.Disagreed += tally.Disagreed
	}
	t.Logf("%d entailments cross-checked, %d disagreements", total.Checked, total.Disagreed)
	if total.Checked < 10000 {
		t.Errorf("only %d entailments cross-checked; the corpus no longer exercises the post", total.Checked)
	}
}

// TestOverEagerConeIsCaught: a cone that leaves out one connected
// conjunct is unsound, and the cross-check must see it.
func TestOverEagerConeIsCaught(t *testing.T) {
	for _, np := range entailmentPrograms(t) {
		if tally := crossCheck(np, true); tally.Disagreed > 0 {
			t.Logf("%s: %d of %d entailments disagree", np.name, tally.Disagreed, tally.Checked)
			return
		}
	}
	t.Fatal("the planted over-eager cone went unnoticed")
}
