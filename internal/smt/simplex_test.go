package smt

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
)

func rat(n int64) num { return numInt(n) }

// mkAtom builds a LinAtom Σ cᵢxᵢ + k (≤ 0 or = 0).
func mkAtom(kind AtomKind, k int64, terms map[string]int64) LinAtom {
	return LinAtom{Kind: kind, Expr: mkExpr(k, terms)}
}

// mkExpr builds the normalized expression Σ cᵢxᵢ + k.
func mkExpr(k int64, terms map[string]int64) LinExpr {
	e := LinExpr{Const: numInt(k)}
	for v, c := range terms {
		e.Terms = append(e.Terms, LinTerm{Var: v, Coeff: numInt(c)})
	}
	e.normalize()
	return e
}

// at is the bound n.
func at(n int64) bound { return bound{v: numInt(n), ok: true} }

// valOf returns the current value of the named variable.
func (s *simplex) valOf(name string) num { return s.vars[s.index[name]].val }

func TestSimplexDirectFeasible(t *testing.T) {
	// x + y <= 4, x >= 1, y >= 2 (as -x <= -1, -y <= -2).
	sx := newSimplex()
	sx.addConstraint(mkExpr(0, map[string]int64{"x": 1, "y": 1}).Terms, bound{}, at(4))
	sx.addConstraint(mkExpr(0, map[string]int64{"x": -1}).Terms, bound{}, at(-1))
	sx.addConstraint(mkExpr(0, map[string]int64{"y": -1}).Terms, bound{}, at(-2))
	if st := sx.check(); st != StatusSat {
		t.Fatalf("status: %s", st)
	}
	x := sx.valOf("x")
	y := sx.valOf("y")
	sum := x.add(y)
	if x.cmp(rat(1)) < 0 || y.cmp(rat(2)) < 0 || sum.cmp(rat(4)) > 0 {
		t.Errorf("model violates constraints: x=%v y=%v", x, y)
	}
}

func TestSimplexDirectInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	sx := newSimplex()
	sx.addConstraint(mkExpr(0, map[string]int64{"x": 1}).Terms, bound{}, at(1))
	sx.addConstraint(mkExpr(0, map[string]int64{"x": -1}).Terms, bound{}, at(-2))
	if st := sx.check(); st != StatusUnsat {
		t.Fatalf("status: %s", st)
	}
}

func TestSimplexEqualities(t *testing.T) {
	// x + y = 10, x - y = 4  =>  x = 7, y = 3.
	sx := newSimplex()
	sx.addConstraint(mkExpr(0, map[string]int64{"x": 1, "y": 1}).Terms, at(10), at(10))
	sx.addConstraint(mkExpr(0, map[string]int64{"x": 1, "y": -1}).Terms, at(4), at(4))
	if st := sx.check(); st != StatusSat {
		t.Fatalf("status: %s", st)
	}
	if got := sx.valOf("x"); got.cmp(rat(7)) != 0 {
		t.Errorf("x = %v, want 7", got)
	}
	if got := sx.valOf("y"); got.cmp(rat(3)) != 0 {
		t.Errorf("y = %v, want 3", got)
	}
}

func TestSimplexSetBoundsConflict(t *testing.T) {
	sx := newSimplex()
	sx.addConstraint(mkExpr(0, map[string]int64{"x": 1}).Terms, bound{}, at(10))
	if !sx.setBounds("x", at(3), bound{}) {
		t.Fatal("bounds 3..inf fine")
	}
	if sx.setBounds("x", at(5), at(4)) {
		t.Fatal("empty interval must be rejected")
	}
}

// Property: on random small systems, the simplex verdict agrees with a
// brute-force rational feasibility check over a grid... instead we do
// the stronger model check: SAT models satisfy all constraints, and
// UNSAT answers agree with integer brute force over a small box (if a
// box point satisfies everything, UNSAT is a bug).
func TestQuickSimplexRandomSystems(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	vars := []string{"x", "y", "z"}
	for trial := 0; trial < 300; trial++ {
		sx := newSimplex()
		type cons struct {
			coeffs map[string]int64
			hi     num
		}
		var cs []cons
		n := 1 + r.Intn(5)
		for i := 0; i < n; i++ {
			coeffs := make(map[string]int64)
			for _, v := range vars {
				if c := r.Intn(7) - 3; c != 0 {
					coeffs[v] = int64(c)
				}
			}
			hi := rat(int64(r.Intn(21) - 10))
			sx.addConstraint(mkExpr(0, coeffs).Terms, bound{}, bound{v: hi, ok: true})
			cs = append(cs, cons{coeffs, hi})
		}
		st := sx.check()
		switch st {
		case StatusSat:
			// Verify the model.
			for ci, c := range cs {
				var sum num
				for v, co := range c.coeffs {
					sum = sum.add(rat(co).mul(sx.valOf(v)))
				}
				if sum.cmp(c.hi) > 0 {
					t.Fatalf("trial %d: model violates constraint %d: %v > %v", trial, ci, sum, c.hi)
				}
			}
		case StatusUnsat:
			// Brute force over a box.
			for x := int64(-6); x <= 6; x++ {
				for y := int64(-6); y <= 6; y++ {
					for z := int64(-6); z <= 6; z++ {
						env := map[string]int64{"x": x, "y": y, "z": z}
						all := true
						for _, c := range cs {
							var sum int64
							for v, co := range c.coeffs {
								sum += co * env[v]
							}
							if rat(sum).cmp(c.hi) > 0 {
								all = false
								break
							}
						}
						if all {
							t.Fatalf("trial %d: simplex says unsat but (%d,%d,%d) satisfies all", trial, x, y, z)
						}
					}
				}
			}
		}
	}
}

// Property: branch and bound never returns a non-integer model, and
// its verdicts are consistent with a relaxation check.
func TestQuickBranchAndBound(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		var atoms []LinAtom
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			terms := make(map[string]int64)
			for _, v := range []string{"x", "y"} {
				if c := r.Intn(9) - 4; c != 0 {
					terms[v] = int64(c)
				}
			}
			e := mkExpr(int64(r.Intn(13)-6), terms)
			kind := AtomLe
			if r.Intn(4) == 0 {
				kind = AtomEq
			}
			atoms = append(atoms, LinAtom{Kind: kind, Expr: e})
		}
		st, model := checkConjCtx(context.Background(), atoms, 30)
		if st == StatusSat {
			// Model must satisfy every atom exactly.
			for ai, a := range atoms {
				if !linAtomHolds(a, model) {
					t.Fatalf("trial %d: model %v violates atom %d (%s)", trial, model, ai, a)
				}
			}
		}
		if st == StatusUnsat {
			// Integer brute force on a box must agree.
			for x := int64(-8); x <= 8; x++ {
				for y := int64(-8); y <= 8; y++ {
					m := map[string]num{"x": rat(x), "y": rat(y)}
					all := true
					for _, a := range atoms {
						if !linAtomHolds(a, m) {
							all = false
							break
						}
					}
					if all {
						t.Fatalf("trial %d: unsat but (%d,%d) works; atoms %v", trial, x, y, atoms)
					}
				}
			}
		}
	}
}

// TestCheckConjSatOnWitnessSystems: random systems built around a known
// integer witness are satisfiable, so checkConjCtx must answer Sat with
// a model that satisfies every atom. The witnesses reach ±20, beyond
// the box TestQuickBranchAndBound brute-forces.
func TestCheckConjSatOnWitnessSystems(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	vars := []string{"a", "b", "c"}
	for trial := 0; trial < 400; trial++ {
		witness := map[string]int64{}
		for _, v := range vars {
			witness[v] = int64(r.Intn(41) - 20)
		}
		var atoms []LinAtom
		for i := 0; i < 1+r.Intn(6); i++ {
			terms := map[string]int64{}
			var lhs int64
			for _, v := range vars {
				if c := int64(r.Intn(9) - 4); c != 0 {
					terms[v] = c
					lhs += c * witness[v]
				}
			}
			if r.Intn(3) == 0 {
				atoms = append(atoms, mkAtom(AtomEq, -lhs, terms))
			} else {
				slack := int64(r.Intn(10))
				atoms = append(atoms, mkAtom(AtomLe, -lhs-slack, terms))
			}
		}
		st, model := checkConjCtx(context.Background(), atoms, 40)
		if st != StatusSat {
			t.Fatalf("trial %d: %s; witness %v atoms %v", trial, st, witness, atoms)
		}
		for ai, a := range atoms {
			if !linAtomHolds(a, model) {
				t.Fatalf("trial %d: model %v violates atom %d (%s)", trial, model, ai, a)
			}
		}
	}
}

// TestSSAChainContradictionIsUnsat: v0 = 0, vᵢ = vᵢ₋₁ + 1 for i ≤ 50,
// and v50 = 99 is the shape of an infeasible trace formula. Both the
// stateless leaf check and the incremental solver must refute it.
func TestSSAChainContradictionIsUnsat(t *testing.T) {
	const n = 50
	name := func(i int) string { return "v" + strconv.Itoa(i) }
	atoms := []LinAtom{mkAtom(AtomEq, 0, map[string]int64{name(0): 1})}
	s := NewSolver()
	s.Assert(eq(v(name(0)), c(0)))
	for i := 1; i <= n; i++ {
		atoms = append(atoms, mkAtom(AtomEq, -1, map[string]int64{name(i): 1, name(i - 1): -1}))
		s.Assert(eq(v(name(i)), add(v(name(i-1)), c(1))))
	}
	atoms = append(atoms, mkAtom(AtomEq, -99, map[string]int64{name(n): 1}))
	s.Assert(eq(v(name(n)), c(99)))
	if st, _ := checkConjCtx(context.Background(), atoms, 30); st != StatusUnsat {
		t.Errorf("checkConjCtx: %s, want unsat", st)
	}
	if st := s.Check().Status; st != StatusUnsat {
		t.Errorf("incremental Check: %s, want unsat", st)
	}
}
