package smt

import (
	"math"
	"testing"

	"pathslice/internal/logic"
)

func v(name string) logic.Term       { return logic.Var{Name: name} }
func c(k int64) logic.Term           { return logic.Const{V: k} }
func add(x, y logic.Term) logic.Term { return logic.Bin{Op: logic.OpAdd, X: x, Y: y} }
func sub(x, y logic.Term) logic.Term { return logic.Bin{Op: logic.OpSub, X: x, Y: y} }
func mul(x, y logic.Term) logic.Term { return logic.Bin{Op: logic.OpMul, X: x, Y: y} }

func eq(x, y logic.Term) logic.Formula { return logic.Cmp{Op: logic.CmpEq, X: x, Y: y} }
func ne(x, y logic.Term) logic.Formula { return logic.Cmp{Op: logic.CmpNe, X: x, Y: y} }
func lt(x, y logic.Term) logic.Formula { return logic.Cmp{Op: logic.CmpLt, X: x, Y: y} }
func le(x, y logic.Term) logic.Formula { return logic.Cmp{Op: logic.CmpLe, X: x, Y: y} }
func gt(x, y logic.Term) logic.Formula { return logic.Cmp{Op: logic.CmpGt, X: x, Y: y} }
func ge(x, y logic.Term) logic.Formula { return logic.Cmp{Op: logic.CmpGe, X: x, Y: y} }

func wantStatus(t *testing.T, f logic.Formula, want Status) Result {
	t.Helper()
	r := Solve(f)
	if r.Status != want {
		t.Fatalf("Solve(%s) = %s, want %s (model %v)", f, r.Status, want, r.Model)
	}
	return r
}

// checkModel verifies that a SAT result's model actually satisfies f.
func checkModel(t *testing.T, f logic.Formula, r Result) {
	t.Helper()
	env := make(map[string]int64)
	for _, name := range logic.Vars(f) {
		env[name] = r.Model[name]
	}
	ok, err := logic.Eval(f, env)
	if err != nil {
		t.Fatalf("model eval error for %s: %v (model %v)", f, err, r.Model)
	}
	if !ok {
		t.Fatalf("model %v does not satisfy %s", r.Model, f)
	}
}

func TestSolveTrivial(t *testing.T) {
	wantStatus(t, logic.True, StatusSat)
	wantStatus(t, logic.False, StatusUnsat)
	wantStatus(t, eq(c(1), c(1)), StatusSat)
	wantStatus(t, eq(c(1), c(2)), StatusUnsat)
	wantStatus(t, lt(c(3), c(2)), StatusUnsat)
	wantStatus(t, ge(c(3), c(2)), StatusSat)
}

func TestSolveConjunctions(t *testing.T) {
	x, y := v("x"), v("y")
	r := wantStatus(t, logic.MkAnd(eq(x, c(3)), eq(y, add(x, c(1)))), StatusSat)
	checkModel(t, logic.MkAnd(eq(x, c(3)), eq(y, add(x, c(1)))), r)
	if r.Model["x"] != 3 || r.Model["y"] != 4 {
		t.Errorf("model: %v", r.Model)
	}
	wantStatus(t, logic.MkAnd(eq(x, c(3)), lt(x, c(3))), StatusUnsat)
	wantStatus(t, logic.MkAnd(le(x, c(5)), ge(x, c(5)), ne(x, c(5))), StatusUnsat)
	wantStatus(t, logic.MkAnd(lt(x, y), lt(y, x)), StatusUnsat)
}

func TestSolveDisjunctions(t *testing.T) {
	x := v("x")
	f := logic.MkAnd(
		logic.MkOr(eq(x, c(1)), eq(x, c(2))),
		ne(x, c(1)),
	)
	r := wantStatus(t, f, StatusSat)
	if r.Model["x"] != 2 {
		t.Errorf("model: %v", r.Model)
	}
	f2 := logic.MkAnd(
		logic.MkOr(eq(x, c(1)), eq(x, c(2))),
		ne(x, c(1)),
		ne(x, c(2)),
	)
	wantStatus(t, f2, StatusUnsat)
}

func TestSolveNegationNormalization(t *testing.T) {
	x := v("x")
	// !(x < 5) && x <= 5  =>  x == 5
	f := logic.MkAnd(logic.MkNot(lt(x, c(5))), le(x, c(5)))
	r := wantStatus(t, f, StatusSat)
	if r.Model["x"] != 5 {
		t.Errorf("model: %v", r.Model)
	}
	// !(x == x) is unsat.
	wantStatus(t, logic.MkNot(eq(x, x)), StatusUnsat)
	// De Morgan through Not of And.
	g := logic.Not{F: logic.MkAnd(ge(x, c(0)), le(x, c(10)))}
	r = wantStatus(t, logic.MkAnd(g, ge(x, c(0))), StatusSat)
	if r.Model["x"] <= 10 {
		t.Errorf("x must exceed 10: %v", r.Model)
	}
}

func TestSolveIntegrality(t *testing.T) {
	x, y := v("x"), v("y")
	// 2x = 2y + 1 has rational solutions but no integer ones (GCD test).
	f := eq(mul(c(2), x), add(mul(c(2), y), c(1)))
	wantStatus(t, f, StatusUnsat)
	// 4 <= 3x <= 5 has rational solutions (x ∈ [4/3, 5/3]) but no
	// integer one: needs branch and bound.
	g := logic.MkAnd(ge(mul(c(3), x), c(4)), le(mul(c(3), x), c(5)))
	wantStatus(t, g, StatusUnsat)
	// 2 <= 2x <= 4 does have integer solutions.
	h := logic.MkAnd(ge(mul(c(2), x), c(2)), le(mul(c(2), x), c(4)))
	r := wantStatus(t, h, StatusSat)
	checkModel(t, h, r)
}

func TestSolveChainedSSA(t *testing.T) {
	// The shape of trace formulas: x1 = x0+1, x2 = x1+1, ..., x0 = 0,
	// xn == n is sat; xn == n+1 is unsat.
	const n = 30
	mk := func(last int64) logic.Formula {
		fs := []logic.Formula{eq(v(vname(0)), c(0))}
		for i := 1; i <= n; i++ {
			fs = append(fs, eq(v(vname(i)), add(v(vname(i-1)), c(1))))
		}
		fs = append(fs, eq(v(vname(n)), c(last)))
		return logic.MkAnd(fs...)
	}
	r := wantStatus(t, mk(n), StatusSat)
	checkModel(t, mk(n), r)
	wantStatus(t, mk(n+1), StatusUnsat)
}

func vname(i int) string {
	return "x" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestSolveNonlinearAbstraction(t *testing.T) {
	x, y := v("x"), v("y")
	// x*y == 6 && x == 2 && y == 3 : abstraction + validation finds it.
	f := logic.MkAnd(eq(mul(x, y), c(6)), eq(x, c(2)), eq(y, c(3)))
	r := wantStatus(t, f, StatusSat)
	checkModel(t, f, r)
	// x*y == 6 && x*y == 7 : same abstract var, contradiction caught.
	g := logic.MkAnd(eq(mul(x, y), c(6)), eq(mul(x, y), c(7)))
	wantStatus(t, g, StatusUnsat)
	// x*y == 5 && x == 2 && y == 3 : abstraction says sat, validation
	// fails; must NOT report sat.
	h := logic.MkAnd(eq(mul(x, y), c(5)), eq(x, c(2)), eq(y, c(3)))
	if got := Solve(h); got.Status == StatusSat {
		t.Fatalf("invalid nonlinear formula reported sat with model %v", got.Model)
	}
}

func TestSolveDivMod(t *testing.T) {
	x := v("x")
	// Constant folding keeps these exact.
	f := eq(logic.Bin{Op: logic.OpDiv, X: c(7), Y: c(2)}, c(3))
	wantStatus(t, f, StatusSat)
	g := eq(logic.Bin{Op: logic.OpMod, X: c(7), Y: c(2)}, c(1))
	wantStatus(t, g, StatusSat)
	// Nonconstant division is abstracted; a consistent assignment
	// validates.
	h := logic.MkAnd(eq(x, c(6)), eq(logic.Bin{Op: logic.OpDiv, X: x, Y: c(2)}, c(3)))
	r := Solve(h)
	if r.Status == StatusUnsat {
		t.Fatalf("x=6 && x/2=3 must not be unsat")
	}
}

func TestUnsatCore_NeverLies(t *testing.T) {
	// Unsat verdicts must hold even with abstraction: if the abstract
	// formula is unsat, so is the original.
	x, y := v("x"), v("y")
	f := logic.MkAnd(
		gt(mul(x, y), c(0)),
		lt(mul(x, y), c(0)),
	)
	wantStatus(t, f, StatusUnsat)
}

func TestIncrementalSolver(t *testing.T) {
	s := NewSolver()
	x := v("x")
	s.Assert(ge(x, c(0)))
	if r := s.Check(); r.Status != StatusSat {
		t.Fatalf("x>=0: %s", r.Status)
	}
	s.Assert(lt(x, c(0)))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("x>=0 && x<0: %s", r.Status)
	}
	// Unsat is sticky: later checks answer without re-solving.
	checks := s.Checks
	s.Assert(eq(x, c(1)))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatal("unsat must be sticky")
	}
	if s.Checks != checks {
		t.Fatalf("sticky unsat must not re-solve: %d solver checks, want %d", s.Checks, checks)
	}
}

// TestWordBoundarySystemsAreSat: constants and coefficients at the
// int64 boundary, and bounds whose sum passes 2^56, must not make
// either solver path refute a satisfiable system (witness in each
// name).
func TestWordBoundarySystemsAreSat(t *testing.T) {
	const b = int64(1) << 55
	x, y1, y2, y3, z := v("x"), v("y1"), v("y2"), v("y3"), v("z")
	cases := []struct {
		name    string
		formula logic.Formula
	}{
		{"x + MinInt64 <= 0 (x = 0)", le(add(x, c(math.MinInt64)), c(0))},
		{"MinInt64*x - 1 <= 0, x <= 0 (x = 0)",
			logic.MkAnd(le(sub(mul(c(math.MinInt64), x), c(1)), c(0)), le(x, c(0)))},
		{"2z <= y1+y2+y3, yi <= 2^55, z >= 2^55+1 (yi = 2^55, z = 2^55+1)",
			logic.MkAnd(
				le(y1, c(b)), le(y2, c(b)), le(y3, c(b)),
				le(mul(c(2), z), add(add(y1, y2), y3)),
				ge(z, c(b+1)),
			)},
	}
	for _, tc := range cases {
		if r := Solve(tc.formula); r.Status != StatusSat {
			t.Errorf("%s: Solve = %s, want sat", tc.name, r.Status)
		}
		s := NewSolver()
		s.Assert(tc.formula)
		if r := s.Check(); r.Status != StatusSat {
			t.Errorf("%s: incremental Check = %s, want sat", tc.name, r.Status)
		}
	}
}

// Brute-force reference: enumerate all assignments over a small domain
// and compare with the solver. Formulas are linear so the solver must
// agree exactly on UNSAT; for SAT within the domain the solver must
// also say SAT (it may find models outside the domain, which is fine).
func TestSolveAgainstBruteForce(t *testing.T) {
	vars := []string{"a", "b"}
	const lo, hi = -3, 3
	formulas := []logic.Formula{
		logic.MkAnd(lt(v("a"), v("b")), lt(v("b"), v("a"))),
		logic.MkAnd(le(v("a"), v("b")), le(v("b"), v("a")), ne(v("a"), v("b"))),
		logic.MkOr(eq(v("a"), c(2)), eq(v("b"), c(-2))),
		logic.MkAnd(eq(add(v("a"), v("b")), c(4)), eq(sub(v("a"), v("b")), c(2))),
		logic.MkAnd(eq(add(v("a"), v("b")), c(3)), eq(sub(v("a"), v("b")), c(0))),
		logic.MkAnd(ge(v("a"), c(0)), le(v("a"), c(2)), ne(v("a"), c(0)), ne(v("a"), c(1)), ne(v("a"), c(2))),
		logic.MkAnd(gt(mul(c(3), v("a")), c(1)), lt(mul(c(3), v("a")), c(5))),
	}
	for i, f := range formulas {
		bruteSat := false
		for a := int64(lo); a <= hi && !bruteSat; a++ {
			for b := int64(lo); b <= hi && !bruteSat; b++ {
				env := map[string]int64{vars[0]: a, vars[1]: b}
				ok, err := logic.Eval(f, env)
				if err == nil && ok {
					bruteSat = true
				}
			}
		}
		r := Solve(f)
		if bruteSat && r.Status == StatusUnsat {
			t.Errorf("formula %d (%s): brute force found a model but solver says unsat", i, f)
		}
		if !bruteSat && r.Status == StatusSat {
			// The model may legitimately live outside the brute-force
			// domain; verify it.
			checkModel(t, f, r)
		}
	}
}

func TestRatHelpers(t *testing.T) {
	r := numInt(7).quo(numInt(2))
	if f, _ := r.floor().int64(); f != 3 {
		t.Errorf("floor(7/2) = %v", r.floor())
	}
	if f, _ := numInt(-7).quo(numInt(2)).floor().int64(); f != -4 {
		t.Errorf("floor(-7/2) = %v", f)
	}
}

func TestLinearizeSharing(t *testing.T) {
	l := newLinearizer()
	x, y := v("x"), v("y")
	e1 := l.term(mul(x, y))
	e2 := l.term(mul(x, y))
	if e1.String() != e2.String() {
		t.Errorf("identical nonlinear terms must share the abstraction var: %s vs %s", e1, e2)
	}
	e3 := l.term(mul(y, x))
	if e3.String() == e1.String() {
		t.Log("note: x*y and y*x are distinct abstractions (syntactic sharing only)")
	}
	if !l.used {
		t.Error("abstraction flag must be set")
	}
}

func TestSolveLargeConjunctionPerformance(t *testing.T) {
	// 200-variable equality chain should solve fast.
	fs := []logic.Formula{eq(v("y000"), c(7))}
	prev := "y000"
	for i := 1; i < 200; i++ {
		name := vname3(i)
		fs = append(fs, eq(v(name), add(v(prev), c(1))))
		prev = name
	}
	f := logic.MkAnd(fs...)
	r := wantStatus(t, f, StatusSat)
	if r.Model[prev] != 7+199 {
		t.Errorf("chain end: %d", r.Model[prev])
	}
}

func vname3(i int) string {
	return "y" + string(rune('0'+i/100)) + string(rune('0'+(i/10)%10)) + string(rune('0'+i%10))
}
