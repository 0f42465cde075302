// Package smt implements the decision procedure used to decide
// (in)feasibility of trace formulas (§4.2 of the paper): satisfiability
// of quantifier-free formulas over linear integer arithmetic.
//
// Architecture:
//
//   - num.go is the exact rational every layer below computes in: a
//     reduced int64 fraction while an operation's result provably fits
//     a machine word, a big.Rat otherwise (re-inlined once it fits
//     again). Nothing rounds or saturates, so every comparison, pivot
//     and model is the one math/big would give;
//   - linearize.go turns comparison atoms into normalized linear
//     constraints Σ cᵢ·xᵢ ≤ k / = k over integers, as term slices
//     sorted by variable name, abstracting nonlinear subterms (x*y,
//     x/y, x%y with non-constant operands) into fresh variables with
//     structural sharing;
//   - simplex.go is a Dutertre–de Moura style general simplex over
//     those exact rationals, with values, bounds and sparse rows in
//     slices indexed by dense variable ids, deciding conjunctions with
//     branch-and-bound for integrality;
//   - solve.go performs semantic case-splitting over the boolean
//     structure with lazy disequality splitting, plus model validation
//     against the original formula whenever abstraction was used.
//
// Verdicts: Unsat is always trustworthy (every abstraction used is an
// over-approximation). Sat comes with a model that has been validated
// against the original formula. Unknown is returned when resource
// limits are hit or no abstract model validates.
//
// Observability: every solve is wrapped in an obs span (phase "smt")
// and the package mirrors its internals — solve counts and verdicts,
// case splits, simplex pivots, per-solve latency, and Cache
// hit/miss/eviction traffic — onto the process-wide obs registry (the
// smt_* metrics; see docs/OBSERVABILITY.md). With observability
// disabled every such update is a single atomic load plus a branch.
package smt

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"pathslice/internal/logic"
)

// LinTerm is one coefficient·variable summand of a LinExpr.
type LinTerm struct {
	Var   string
	Coeff num
}

// LinExpr is a linear expression Σ coeff·var + Const over integers.
// Terms are sorted by variable name, name each variable once, and have
// nonzero coefficients, so consumers read them in order with no sort
// and no map walk.
type LinExpr struct {
	Terms []LinTerm
	Const num
}

// normalize sorts the terms by name, merges repeated variables and
// drops zero coefficients.
func (e *LinExpr) normalize() {
	slices.SortFunc(e.Terms, func(a, b LinTerm) int { return cmp.Compare(a.Var, b.Var) })
	out := e.Terms[:0]
	for _, t := range e.Terms {
		if n := len(out); n > 0 && out[n-1].Var == t.Var {
			out[n-1].Coeff = out[n-1].Coeff.add(t.Coeff)
			continue
		}
		out = append(out, t)
	}
	kept := out[:0]
	for _, t := range out {
		if t.Coeff.sign() != 0 {
			kept = append(kept, t)
		}
	}
	e.Terms = kept
}

// String renders the expression deterministically.
func (e LinExpr) String() string {
	var b strings.Builder
	for _, t := range e.Terms {
		fmt.Fprintf(&b, "%s*%s + ", t.Coeff, t.Var)
	}
	fmt.Fprintf(&b, "%s", e.Const)
	return b.String()
}

// AtomKind classifies normalized linear atoms.
type AtomKind int

// Normalized atom kinds: expr ≤ 0 or expr = 0.
const (
	AtomLe AtomKind = iota // Expr ≤ 0
	AtomEq                 // Expr = 0
)

// LinAtom is a normalized linear constraint.
type LinAtom struct {
	Kind AtomKind
	Expr LinExpr
}

// String renders the atom.
func (a LinAtom) String() string {
	op := "<= 0"
	if a.Kind == AtomEq {
		op = "= 0"
	}
	return a.Expr.String() + " " + op
}

// linearizer converts terms to linear expressions, abstracting
// nonlinear subterms into fresh variables ("$u0", "$u1", ...). Two
// structurally identical nonlinear subterms map to the same variable,
// giving functional consistency for free.
type linearizer struct {
	uvars map[string]string // term string -> abstraction variable
	terms map[string]logic.Term
	used  bool // whether any abstraction happened
}

func newLinearizer() *linearizer {
	return &linearizer{uvars: make(map[string]string), terms: make(map[string]logic.Term)}
}

func (l *linearizer) abstractTerm(t logic.Term) string {
	key := t.String()
	if v, ok := l.uvars[key]; ok {
		return v
	}
	v := fmt.Sprintf("$u%d", len(l.uvars))
	l.uvars[key] = v
	l.terms[key] = t
	l.used = true
	return v
}

// term linearizes t, abstracting nonlinear parts.
func (l *linearizer) term(t logic.Term) LinExpr {
	var e LinExpr
	l.addTerm(&e, t, numInt(1))
	e.normalize()
	return e
}

// addTerm adds scale·t to e; the caller normalizes e afterwards.
func (l *linearizer) addTerm(e *LinExpr, t logic.Term, scale num) {
	switch t := t.(type) {
	case logic.Const:
		e.Const = e.Const.add(numInt(t.V).mul(scale))
	case logic.Var:
		e.Terms = append(e.Terms, LinTerm{Var: t.Name, Coeff: scale})
	case logic.Neg:
		l.addTerm(e, t.X, scale.neg())
	case logic.Bin:
		switch t.Op {
		case logic.OpAdd:
			l.addTerm(e, t.X, scale)
			l.addTerm(e, t.Y, scale)
		case logic.OpSub:
			l.addTerm(e, t.X, scale)
			l.addTerm(e, t.Y, scale.neg())
		case logic.OpMul:
			// Multiplication by a constant side stays linear.
			if c, ok := constTerm(t.X); ok {
				l.addTerm(e, t.Y, scale.mul(c))
				return
			}
			if c, ok := constTerm(t.Y); ok {
				l.addTerm(e, t.X, scale.mul(c))
				return
			}
			e.Terms = append(e.Terms, LinTerm{Var: l.abstractTerm(t), Coeff: scale})
		default: // Div, Mod: abstract
			e.Terms = append(e.Terms, LinTerm{Var: l.abstractTerm(t), Coeff: scale})
		}
	default:
		e.Terms = append(e.Terms, LinTerm{Var: l.abstractTerm(t), Coeff: scale})
	}
}

// constTerm evaluates a closed term to a constant if possible.
func constTerm(t logic.Term) (num, bool) {
	switch t := t.(type) {
	case logic.Const:
		return numInt(t.V), true
	case logic.Neg:
		if c, ok := constTerm(t.X); ok {
			return c.neg(), true
		}
	case logic.Bin:
		x, okx := constTerm(t.X)
		if !okx {
			return num{}, false
		}
		y, oky := constTerm(t.Y)
		if !oky {
			return num{}, false
		}
		switch t.Op {
		case logic.OpAdd:
			return x.add(y), true
		case logic.OpSub:
			return x.sub(y), true
		case logic.OpMul:
			return x.mul(y), true
		case logic.OpDiv:
			if y.sign() == 0 {
				return num{}, false
			}
			q, _ := truncQuoRem(x, y)
			return q, true
		case logic.OpMod:
			if y.sign() == 0 {
				return num{}, false
			}
			_, r := truncQuoRem(x, y)
			return r, true
		}
	}
	return num{}, false
}

// cmpResult is the linearization of a comparison: either one or two
// atoms (conjunction), or a disjunctive split (for ≠).
type cmpResult struct {
	atoms []LinAtom // conjunction
	split []LinAtom // if non-empty: disjunction of these single atoms
}

// cmp linearizes a comparison x ⋈ y. Over the integers:
//
//	x <  y  ⇒  x - y + 1 ≤ 0
//	x <= y  ⇒  x - y     ≤ 0
//	x =  y  ⇒  x - y     = 0
//	x != y  ⇒  (x - y + 1 ≤ 0) ∨ (y - x + 1 ≤ 0)
func (l *linearizer) cmp(c logic.Cmp) cmpResult {
	diff := func(a, b logic.Term, plus int64) LinExpr {
		var e LinExpr
		l.addTerm(&e, a, numInt(1))
		l.addTerm(&e, b, numInt(-1))
		e.Const = e.Const.add(numInt(plus))
		e.normalize()
		return e
	}
	switch c.Op {
	case logic.CmpLt:
		return cmpResult{atoms: []LinAtom{{Kind: AtomLe, Expr: diff(c.X, c.Y, 1)}}}
	case logic.CmpLe:
		return cmpResult{atoms: []LinAtom{{Kind: AtomLe, Expr: diff(c.X, c.Y, 0)}}}
	case logic.CmpGt:
		return cmpResult{atoms: []LinAtom{{Kind: AtomLe, Expr: diff(c.Y, c.X, 1)}}}
	case logic.CmpGe:
		return cmpResult{atoms: []LinAtom{{Kind: AtomLe, Expr: diff(c.Y, c.X, 0)}}}
	case logic.CmpEq:
		return cmpResult{atoms: []LinAtom{{Kind: AtomEq, Expr: diff(c.X, c.Y, 0)}}}
	case logic.CmpNe:
		return cmpResult{split: []LinAtom{
			{Kind: AtomLe, Expr: diff(c.X, c.Y, 1)},
			{Kind: AtomLe, Expr: diff(c.Y, c.X, 1)},
		}}
	}
	panic("smt: unknown comparison")
}
