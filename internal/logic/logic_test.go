package logic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func v(name string) Term { return Var{Name: name} }
func c(k int64) Term     { return Const{V: k} }

func TestStrings(t *testing.T) {
	f := MkAnd(
		Cmp{Op: CmpLt, X: Bin{Op: OpAdd, X: v("x"), Y: c(1)}, Y: v("y")},
		MkOr(Cmp{Op: CmpEq, X: v("z"), Y: c(0)}, Not{F: True}),
	)
	want := "(((x + 1) < y) && ((z == 0) || !true))"
	if got := f.String(); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	if got := (Neg{X: v("a")}).String(); got != "(-a)" {
		t.Errorf("Neg: %s", got)
	}
}

func TestMkAndOrSimplification(t *testing.T) {
	if f := MkAnd(); !Equal(f, True) {
		t.Errorf("empty and: %s", f)
	}
	if f := MkOr(); !Equal(f, False) {
		t.Errorf("empty or: %s", f)
	}
	a := Cmp{Op: CmpEq, X: v("a"), Y: c(1)}
	if f := MkAnd(True, a, True); !Equal(f, a) {
		t.Errorf("and simplification: %s", f)
	}
	if f := MkAnd(a, False); !Equal(f, False) {
		t.Errorf("and false: %s", f)
	}
	if f := MkOr(False, a); !Equal(f, a) {
		t.Errorf("or simplification: %s", f)
	}
	if f := MkOr(a, True); !Equal(f, True) {
		t.Errorf("or true: %s", f)
	}
	// Flattening.
	b := Cmp{Op: CmpEq, X: v("b"), Y: c(2)}
	cc := Cmp{Op: CmpEq, X: v("c"), Y: c(3)}
	f := MkAnd(MkAnd(a, b), cc)
	if and, ok := f.(And); !ok || len(and.Fs) != 3 {
		t.Errorf("flattening: %s", f)
	}
}

func TestMkNot(t *testing.T) {
	a := Cmp{Op: CmpLt, X: v("x"), Y: c(5)}
	n := MkNot(a)
	if cmp, ok := n.(Cmp); !ok || cmp.Op != CmpGe {
		t.Errorf("negated comparison: %s", n)
	}
	if !Equal(MkNot(MkNot(a)), a) {
		t.Error("double negation")
	}
	if !Equal(MkNot(True), False) || !Equal(MkNot(False), True) {
		t.Error("boolean negation")
	}
}

func TestVars(t *testing.T) {
	f := MkAnd(
		Cmp{Op: CmpEq, X: Bin{Op: OpMul, X: v("b"), Y: v("a")}, Y: c(1)},
		MkOr(Cmp{Op: CmpLt, X: Neg{X: v("c")}, Y: v("a")}),
	)
	if got := Vars(f); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("vars: %v", got)
	}
}

func TestSubst(t *testing.T) {
	f := Cmp{Op: CmpEq, X: v("x"), Y: Bin{Op: OpAdd, X: v("y"), Y: c(1)}}
	g := Subst(f, map[string]Term{"x": c(5), "y": v("z")})
	if g.String() != "(5 == (z + 1))" {
		t.Errorf("subst: %s", g)
	}
	// Original untouched.
	if f.String() != "(x == (y + 1))" {
		t.Errorf("original mutated: %s", f)
	}
}

func TestEvalCSemantics(t *testing.T) {
	env := map[string]int64{"x": -7, "y": 2}
	div := Bin{Op: OpDiv, X: v("x"), Y: v("y")}
	got, err := EvalTerm(div, env)
	if err != nil || got != -3 {
		t.Errorf("-7/2 = %d (err %v), want -3 (truncation toward zero)", got, err)
	}
	mod := Bin{Op: OpMod, X: v("x"), Y: v("y")}
	got, err = EvalTerm(mod, env)
	if err != nil || got != -1 {
		t.Errorf("-7%%2 = %d (err %v), want -1", got, err)
	}
	if _, err := EvalTerm(Bin{Op: OpDiv, X: c(1), Y: c(0)}, env); err == nil {
		t.Error("division by zero must error")
	}
	if _, err := EvalTerm(v("missing"), env); err == nil {
		t.Error("unbound variable must error")
	}
}

func TestEvalFormulas(t *testing.T) {
	env := map[string]int64{"a": 3, "b": 4}
	cases := []struct {
		f    Formula
		want bool
	}{
		{Cmp{Op: CmpLt, X: v("a"), Y: v("b")}, true},
		{Cmp{Op: CmpGe, X: v("a"), Y: v("b")}, false},
		{MkAnd(Cmp{Op: CmpEq, X: v("a"), Y: c(3)}, Cmp{Op: CmpNe, X: v("b"), Y: c(3)}), true},
		{MkOr(Cmp{Op: CmpGt, X: v("a"), Y: c(10)}, Cmp{Op: CmpLe, X: v("b"), Y: c(4)}), true},
		{Not{F: Cmp{Op: CmpEq, X: v("a"), Y: c(3)}}, false},
	}
	for i, cse := range cases {
		got, err := Eval(cse.f, env)
		if err != nil || got != cse.want {
			t.Errorf("case %d (%s): got %v err %v", i, cse.f, got, err)
		}
	}
}

// randFormula builds a random formula over vars a..c with bounded depth.
func randFormula(r *rand.Rand, depth int) Formula {
	vars := []string{"a", "b", "c"}
	randTerm := func() Term {
		switch r.Intn(3) {
		case 0:
			return Const{V: int64(r.Intn(11) - 5)}
		case 1:
			return Var{Name: vars[r.Intn(len(vars))]}
		default:
			return Bin{Op: BinOp(r.Intn(3)), // + - * only: total
				X: Var{Name: vars[r.Intn(len(vars))]},
				Y: Const{V: int64(r.Intn(5) + 1)}}
		}
	}
	if depth <= 0 || r.Intn(3) == 0 {
		return Cmp{Op: CmpOp(r.Intn(6)), X: randTerm(), Y: randTerm()}
	}
	switch r.Intn(3) {
	case 0:
		return MkAnd(randFormula(r, depth-1), randFormula(r, depth-1))
	case 1:
		return MkOr(randFormula(r, depth-1), randFormula(r, depth-1))
	default:
		return Not{F: randFormula(r, depth-1)}
	}
}

// Property: NNF preserves evaluation on random formulas/environments.
func TestQuickNNFPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		f := randFormula(r, 4)
		g := NNF(f)
		env := map[string]int64{
			"a": int64(r.Intn(11) - 5),
			"b": int64(r.Intn(11) - 5),
			"c": int64(r.Intn(11) - 5),
		}
		vf, err1 := Eval(f, env)
		vg, err2 := Eval(g, env)
		if err1 != nil || err2 != nil {
			t.Fatalf("eval errors: %v %v", err1, err2)
		}
		if vf != vg {
			t.Fatalf("NNF changed semantics:\n f=%s (%v)\n g=%s (%v)\n env=%v", f, vf, g, vg, env)
		}
	}
}

// Property: NNF output contains no Not nodes.
func TestQuickNNFShape(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var hasNot func(f Formula) bool
	hasNot = func(f Formula) bool {
		switch f := f.(type) {
		case Not:
			return true
		case And:
			for _, g := range f.Fs {
				if hasNot(g) {
					return true
				}
			}
		case Or:
			for _, g := range f.Fs {
				if hasNot(g) {
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < 500; i++ {
		f := randFormula(r, 4)
		if g := NNF(f); hasNot(g) {
			t.Fatalf("NNF left a Not: %s -> %s", f, g)
		}
	}
}

// Property: MkNot produces the complement under evaluation.
func TestQuickMkNotComplement(t *testing.T) {
	f := func(a, b int8, op uint8) bool {
		cmp := Cmp{Op: CmpOp(op % 6), X: v("a"), Y: v("b")}
		env := map[string]int64{"a": int64(a), "b": int64(b)}
		x, _ := Eval(cmp, env)
		y, _ := Eval(MkNot(cmp), env)
		return x != y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: substitution then evaluation equals evaluation with updated env.
func TestQuickSubstEval(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		f := randFormula(r, 3)
		k := int64(r.Intn(7) - 3)
		g := Subst(f, map[string]Term{"a": Const{V: k}})
		env := map[string]int64{
			"a": k,
			"b": int64(r.Intn(7) - 3),
			"c": int64(r.Intn(7) - 3),
		}
		vf, _ := Eval(f, env)
		vg, _ := Eval(g, env)
		if vf != vg {
			t.Fatalf("subst broke semantics: %s vs %s under %v", f, g, env)
		}
	}
}

func TestEqualStructuralWalk(t *testing.T) {
	// Equal must agree with the string-comparison semantics it
	// replaced, in both argument orders.
	type pair struct {
		a, b Formula
		want bool
	}
	x, y := Var{Name: "x"}, Var{Name: "y"}
	pairs := []pair{
		{True, True, true},
		{True, False, false},
		{Cmp{Op: CmpEq, X: x, Y: y}, Cmp{Op: CmpEq, X: x, Y: y}, true},
		{Cmp{Op: CmpEq, X: x, Y: y}, Cmp{Op: CmpEq, X: y, Y: x}, false},
		{Cmp{Op: CmpEq, X: x, Y: y}, Cmp{Op: CmpNe, X: x, Y: y}, false},
		{MkAnd(Cmp{Op: CmpLt, X: x, Y: y}), Cmp{Op: CmpLt, X: x, Y: y}, true},
		{And{Fs: []Formula{True}}, And{Fs: []Formula{True, True}}, false},
		{Not{F: True}, Not{F: True}, true},
		{Not{F: True}, True, false},
		{Cmp{Op: CmpEq, X: Neg{X: x}, Y: Const{V: 0}}, Cmp{Op: CmpEq, X: Neg{X: x}, Y: Const{V: 0}}, true},
		{Cmp{Op: CmpEq, X: Bin{Op: OpMul, X: x, Y: y}, Y: Const{V: 0}},
			Cmp{Op: CmpEq, X: Bin{Op: OpAdd, X: x, Y: y}, Y: Const{V: 0}}, false},
	}
	for _, p := range pairs {
		for _, swap := range []bool{false, true} {
			a, b := p.a, p.b
			if swap {
				a, b = b, a
			}
			if got := Equal(a, b); got != p.want {
				t.Errorf("Equal(%s, %s) = %v, want %v", a, b, got, p.want)
			}
			if stringEq := a.String() == b.String(); stringEq != p.want {
				t.Errorf("test vector inconsistent with string semantics: %s vs %s", a, b)
			}
		}
	}
}
