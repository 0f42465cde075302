package cegar_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pathslice/internal/cegar"
	"pathslice/internal/compile"
	"pathslice/internal/logic"
)

// chainCluster is a Table-1-style cluster as the synth generator builds
// them: main reaches check0 through the call chain chain0_0(k) →
// chain0_1(k) → chain0_2(k), each call guarded by a local computed from
// a constant, and check0 fails only if f's file state is wrong. Along
// every counterexample the chain's locals hold constants, and no
// refutation needs them.
const chainCluster = `
int cfg2;

void noise0() {
  int t = 3;
  for (int j = 0; j < 2; j = j + 1) {
    t = t + j * 4;
    if (t > 129) {
      t = t - 28;
    }
  }
  cfg2 = t;
}

void check0() {
  int f__state = 0;
  int f = nondet();
  if (f != 0) {
    f__state = 1;
  } else {
    f__state = 0;
  }
  if (f != 0) {
    noise0();
    for (int w = 0; w < 4; w = w + 1) {
      cfg2 = cfg2 + w;
    }
    if (f__state != 1) {
      error;
    }
    f__state = 0;
  }
}

void chain0_2(int k) {
  int t = k + 1;
  if (t > 0) {
    check0();
  }
}

void chain0_1(int k) {
  int t = k + 3;
  if (t > 0) {
    chain0_2(t);
  }
}

void chain0_0(int k) {
  int t = k + 2;
  if (t > 0) {
    chain0_1(t);
  }
}

void main() {
  cfg2 = nondet();
  chain0_0(3);
}
`

// refineLog checks src's error location with the given hooks installed
// and returns the verdict and what each refinement mined.
func refineLog(t *testing.T, src string, hooks ...func(*cegar.Checker)) (*cegar.Result, []cegar.Refinement) {
	t.Helper()
	prog := compile.MustSource(src)
	c := cegar.New(prog, cegar.Options{UseSlicing: true})
	var log []cegar.Refinement
	cegar.RecordRefinements(c, &log)
	for _, h := range hooks {
		h(c)
	}
	return c.Check(prog.ErrorLocs()[0]), log
}

// ruleBreaches lists what breaks refinement's rules in log: a constant
// fact x == c a refinement added although no atom of its core names x,
// and a predicate list that holds both p and ¬p.
func ruleBreaches(log []cegar.Refinement) []string {
	var out []string
	var before []logic.Formula
	for _, r := range log {
		added := r.Preds[len(before):]
		before = r.Preds
		if !r.FromCore {
			continue // every constant counts after an Unknown
		}
		for _, k := range r.Constants {
			if slices.ContainsFunc(added, func(p logic.Formula) bool { return logic.Equal(p, k) }) &&
				!slices.Contains(r.Named, k.X.(logic.Var).Name) {
				out = append(out, "constant fact "+k.String()+" for a variable no core atom names")
			}
		}
	}
	for i, p := range before {
		for _, q := range before[i+1:] {
			if logic.Equal(logic.MkNot(p), q) {
				out = append(out, "both "+p.String()+" and "+q.String())
			}
		}
	}
	return out
}

// TestRefineMinesOnlyTheRefutation: on a Table-1-style cluster, every
// constant fact a refinement adds names a variable of its unsat core,
// and the predicate list never holds an atom next to its negation.
func TestRefineMinesOnlyTheRefutation(t *testing.T) {
	res, log := refineLog(t, chainCluster)
	if res.Verdict != cegar.VerdictSafe {
		t.Fatalf("verdict %s after %d refinements, want safe", res.Verdict, res.Refinements)
	}
	for _, b := range ruleBreaches(log) {
		t.Error(b)
	}
	final := log[len(log)-1].Preds
	t.Logf("safe after %d refinements with %d predicates: %v", res.Refinements, len(final), final)
}

// TestEagerConstantPlantIsCaught: the constant pass that ignores the
// core, which this checker had before, adds the chain locals' constants
// and must break the rule.
func TestEagerConstantPlantIsCaught(t *testing.T) {
	_, log := refineLog(t, chainCluster, cegar.PlantEagerConstants)
	breaches := ruleBreaches(log)
	if len(breaches) == 0 {
		t.Fatal("the eager constant pass went unnoticed")
	}
	t.Logf("caught: %v", breaches)
}

// incrementChain needs the constants of x after each increment: the
// core names x, so each x == c is kept.
const incrementChain = `
int x;
void main() {
  x = 0;
  x = x + 1;
  x = x + 1;
  x = x + 1;
  if (x != 3) {
    error;
  }
}
`

// TestRefineKeepsConstantsOfCoreVariables: the increment chain still
// gets x == 1, x == 2 and x == 3 and is safe after one refinement.
func TestRefineKeepsConstantsOfCoreVariables(t *testing.T) {
	res, log := refineLog(t, incrementChain)
	if res.Verdict != cegar.VerdictSafe || res.Refinements != 1 {
		t.Fatalf("verdict %s after %d refinements, want safe after 1", res.Verdict, res.Refinements)
	}
	preds := log[0].Preds
	for v := int64(1); v <= 3; v++ {
		want := logic.Cmp{Op: logic.CmpEq, X: logic.Var{Name: "x"}, Y: logic.Const{V: v}}
		if !slices.ContainsFunc(preds, func(p logic.Formula) bool { return logic.Equal(p, want) }) {
			t.Errorf("predicates %v lack %s", preds, want)
		}
	}
	if b := ruleBreaches(log); len(b) > 0 {
		t.Error(b)
	}
}

// TestRefineAfterUnknownKeepsEveryConstant: when the refinement solve
// answers Unknown, refinement mines the whole trace formula and every
// constant fact along the slice, named or not.
func TestRefineAfterUnknownKeepsEveryConstant(t *testing.T) {
	_, log := refineLog(t, chainCluster, cegar.ForceRefinementUnknown)
	if len(log) == 0 {
		t.Fatal("no refinement")
	}
	for i, r := range log {
		if r.FromCore {
			t.Fatalf("refinement %d mined an unsat core under a forced Unknown", i+1)
		}
		for _, k := range r.Constants {
			if !slices.ContainsFunc(r.Preds, func(p logic.Formula) bool { return logic.Equal(p, k) }) {
				t.Errorf("refinement %d: predicates lack the constant fact %s", i+1, k)
			}
		}
	}
}

// FuzzOrient: refinement stores one orientation of each ± pair. For a
// comparison a decoded from the input, orienting a and ¬a must give
// the same dedup key, and the oriented atom must be a or ¬a: equal to
// the same one of them under logic.Eval at 32 assignments drawn from
// the seed.
func FuzzOrient(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 1, 0, 0, 5},             // x != 5
		{4, 2, 0, 1, 0, 1, 1, 1, 1}, // (x + y) > y
		{5, 3, 1, 1, 0, 7},          // -y >= 7
		{2, 2, 2, 1, 0, 1, 0, 0, 3}, // (x * x) < 3
		{3, 2, 3, 1, 0, 1, 1, 0, 1}, // (x / y) <= 1
		{0, 0, 200, 1, 2},           // -56 == z
	} {
		f.Add(seed, int64(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		d := atomDecoder{data: data}
		a := logic.Cmp{Op: logic.CmpOp(d.next() % 6), X: d.term(0), Y: d.term(0)}
		na := logic.MkNot(a)
		oa, ona := cegar.Orient(a), cegar.Orient(na.(logic.Cmp))
		if oa.String() != ona.String() {
			t.Fatalf("%s orients to %s but its negation %s to %s", a, oa, na, ona)
		}
		rng := rand.New(rand.NewSource(seed))
		isA, isNotA := true, true
		for range 32 {
			env := map[string]int64{}
			for _, v := range []string{"x", "y", "z"} {
				env[v] = rng.Int63n(41) - 20
				if rng.Intn(4) == 0 {
					env[v] = rng.Int63n(math.MaxInt64) - rng.Int63n(math.MaxInt64)
				}
			}
			got, err := logic.Eval(oa, env)
			if err != nil {
				continue // a division by zero, which a and ¬a share
			}
			va, _ := logic.Eval(a, env)
			vna, _ := logic.Eval(na, env)
			isA = isA && got == va
			isNotA = isNotA && got == vna
		}
		if !isA && !isNotA {
			t.Fatalf("%s orients to %s, which is neither it nor %s", a, oa, na)
		}
	})
}

// atomDecoder reads terms over x, y and z from fuzz bytes; past the
// end it reads zeros.
type atomDecoder struct {
	data []byte
	pos  int
}

func (d *atomDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	d.pos++
	return d.data[d.pos-1]
}

// term decodes a constant, a variable, a binary term or a negation,
// nested at most four deep.
func (d *atomDecoder) term(depth int) logic.Term {
	kind := d.next() % 4
	if depth == 4 {
		kind %= 2
	}
	switch kind {
	case 0:
		return logic.Const{V: int64(int8(d.next()))}
	case 1:
		return logic.Var{Name: []string{"x", "y", "z"}[d.next()%3]}
	case 2:
		return logic.Bin{Op: logic.BinOp(d.next() % 5), X: d.term(depth + 1), Y: d.term(depth + 1)}
	}
	return logic.Neg{X: d.term(depth + 1)}
}
