package smt

import (
	"math/rand"
	"testing"
)

func rat(n int64) num { return numInt(n) }

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
		st, model := checkConj(atoms, 30)
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
