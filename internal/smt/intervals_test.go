package smt

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pathslice/internal/logic"
)

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

func TestICPBasicContradictions(t *testing.T) {
	// x ≤ 1 ∧ x ≥ 2: (x - 1 ≤ 0), (-x + 2 ≤ 0).
	atoms := []LinAtom{
		mkAtom(AtomLe, -1, map[string]int64{"x": 1}),
		mkAtom(AtomLe, 2, map[string]int64{"x": -1}),
	}
	if got := icpCheck(atoms, internLeaf(atoms), 0); got != StatusUnsat {
		t.Errorf("x<=1, x>=2: %s", got)
	}
	// x ≤ 5 ∧ x ≥ 3: satisfiable → Unknown.
	atoms = []LinAtom{
		mkAtom(AtomLe, -5, map[string]int64{"x": 1}),
		mkAtom(AtomLe, 3, map[string]int64{"x": -1}),
	}
	if got := icpCheck(atoms, internLeaf(atoms), 0); got != StatusUnknown {
		t.Errorf("x in [3,5]: %s", got)
	}
}

func TestICPEqualityChains(t *testing.T) {
	// x = 3, y = x + 1, y = 5: contradiction propagates through the
	// chain. Atoms: (x - 3 = 0), (y - x - 1 = 0), (y - 5 = 0).
	atoms := []LinAtom{
		mkAtom(AtomEq, -3, map[string]int64{"x": 1}),
		mkAtom(AtomEq, -1, map[string]int64{"y": 1, "x": -1}),
		mkAtom(AtomEq, -5, map[string]int64{"y": 1}),
	}
	if got := icpCheck(atoms, internLeaf(atoms), 0); got != StatusUnsat {
		t.Errorf("chain contradiction: %s", got)
	}
	// Consistent version (y = 4): Unknown.
	atoms[2] = mkAtom(AtomEq, -4, map[string]int64{"y": 1})
	if got := icpCheck(atoms, internLeaf(atoms), 0); got != StatusUnknown {
		t.Errorf("consistent chain: %s", got)
	}
}

func TestICPNeverFalseUnsat(t *testing.T) {
	// Random satisfiable systems built from a known witness must never
	// be reported UNSAT by ICP.
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
		if got := icpCheck(atoms, internLeaf(atoms), 0); got == StatusUnsat {
			t.Fatalf("trial %d: false UNSAT; witness %v atoms %v", trial, witness, atoms)
		}
	}
}

func TestICPAgreesWithSimplexOnRandomSystems(t *testing.T) {
	// ICP-UNSAT must imply simplex-UNSAT.
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		var atoms []LinAtom
		for i := 0; i < 1+r.Intn(5); i++ {
			terms := map[string]int64{}
			for _, v := range []string{"x", "y"} {
				if c := int64(r.Intn(7) - 3); c != 0 {
					terms[v] = c
				}
			}
			kind := AtomLe
			if r.Intn(3) == 0 {
				kind = AtomEq
			}
			atoms = append(atoms, mkAtom(kind, int64(r.Intn(15)-7), terms))
		}
		if icpCheck(atoms, internLeaf(atoms), 0) == StatusUnsat {
			st, _ := branchAndBound(context.Background(), atoms, internLeaf(atoms), nil, 30)
			if st == StatusSat {
				t.Fatalf("trial %d: ICP says unsat, simplex finds a model; atoms %v", trial, atoms)
			}
		}
	}
}

// TestICPNeverFalseUnsatAtWordBoundary: constants, coefficients and
// sums of bounds beyond icpInf must widen, never narrow, the derived
// bounds. Each system is satisfiable (witness in the comment), so
// neither icpCheck nor either solver may answer Unsat.
func TestICPNeverFalseUnsatAtWordBoundary(t *testing.T) {
	const b = int64(1) << 55
	x, y1, y2, y3, z := v("x"), v("y1"), v("y2"), v("y3"), v("z")
	cases := []struct {
		name    string
		atoms   []LinAtom
		formula logic.Formula
	}{
		{
			name:    "x + MinInt64 <= 0 (x = 0)",
			atoms:   []LinAtom{mkAtom(AtomLe, math.MinInt64, map[string]int64{"x": 1})},
			formula: le(add(x, c(math.MinInt64)), c(0)),
		},
		{
			name: "MinInt64*x - 1 <= 0, x <= 0 (x = 0)",
			atoms: []LinAtom{
				mkAtom(AtomLe, -1, map[string]int64{"x": math.MinInt64}),
				mkAtom(AtomLe, 0, map[string]int64{"x": 1}),
			},
			formula: logic.MkAnd(le(sub(mul(c(math.MinInt64), x), c(1)), c(0)), le(x, c(0))),
		},
		{
			// The bounds of y1+y2+y3 sum past icpInf.
			name: "2z <= y1+y2+y3, yi <= 2^55, z >= 2^55+1 (yi = 2^55, z = 2^55+1)",
			atoms: []LinAtom{
				mkAtom(AtomLe, -b, map[string]int64{"y1": 1}),
				mkAtom(AtomLe, -b, map[string]int64{"y2": 1}),
				mkAtom(AtomLe, -b, map[string]int64{"y3": 1}),
				mkAtom(AtomLe, 0, map[string]int64{"z": 2, "y1": -1, "y2": -1, "y3": -1}),
				mkAtom(AtomLe, b+1, map[string]int64{"z": -1}),
			},
			formula: logic.MkAnd(
				le(y1, c(b)), le(y2, c(b)), le(y3, c(b)),
				le(mul(c(2), z), add(add(y1, y2), y3)),
				ge(z, c(b+1)),
			),
		},
	}
	for _, tc := range cases {
		if got := icpCheck(tc.atoms, internLeaf(tc.atoms), 0); got == StatusUnsat {
			t.Errorf("%s: icpCheck refutes a satisfiable system", tc.name)
		}
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

func TestSaturationHelpers(t *testing.T) {
	if satAdd(icpInf, icpInf) != icpInf {
		t.Error("satAdd overflow")
	}
	if satAdd(-icpInf, -icpInf) != -icpInf {
		t.Error("satAdd underflow")
	}
	if satMul(icpInf, 2) != icpInf || satMul(icpInf, -2) != -icpInf {
		t.Error("satMul saturation")
	}
	if satMul(0, icpInf) != 0 {
		t.Error("satMul zero")
	}
	if floorDiv(7, 2) != 3 || floorDiv(-7, 2) != -4 {
		t.Error("floorDiv")
	}
	if ceilDiv(7, 2) != 4 || ceilDiv(-7, 2) != -3 {
		t.Error("ceilDiv")
	}
}

// The end-to-end effect: a long SSA chain contradiction should be
// decided without branch and bound (cheaply). This is a smoke check
// that the pre-filter is wired in.
func TestICPWiredIntoCheckConj(t *testing.T) {
	var atoms []LinAtom
	prev := "v0"
	atoms = append(atoms, mkAtom(AtomEq, 0, map[string]int64{prev: 1})) // v0 = 0
	for i := 1; i <= 50; i++ {
		cur := "v" + itoa(i)
		atoms = append(atoms, mkAtom(AtomEq, -1, map[string]int64{cur: 1, prev: -1}))
		prev = cur
	}
	atoms = append(atoms, mkAtom(AtomEq, -99, map[string]int64{prev: 1})) // v50 = 99 (truth: 50)
	st, _ := checkConj(atoms, 30)
	if st != StatusUnsat {
		t.Fatalf("chain: %s", st)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	s := ""
	for i > 0 {
		s = string(rune('0'+i%10)) + s
		i /= 10
	}
	return s
}
