// Package logic defines the term and formula language used for weakest
// preconditions and trace constraints (§3.1 of the paper): integer
// terms with the MiniC arithmetic operators, and quantifier-free
// boolean combinations of arithmetic comparisons.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// Terms

// Term is an integer-valued term.
type Term interface {
	termNode()
	String() string
}

// Const is an integer constant.
type Const struct{ V int64 }

// Var is a variable reference (SSA-renamed or plain).
type Var struct{ Name string }

// BinOp identifies an arithmetic operator.
type BinOp int

// The arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv // truncated toward zero, as in C
	OpMod // sign follows the dividend, as in C
)

// String renders the operator.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	}
	return "?"
}

// Bin is a binary arithmetic term.
type Bin struct {
	Op   BinOp
	X, Y Term
}

// Neg is arithmetic negation.
type Neg struct{ X Term }

func (Const) termNode() {}
func (Var) termNode()   {}
func (Bin) termNode()   {}
func (Neg) termNode()   {}

// String renders the constant.
func (t Const) String() string { return fmt.Sprintf("%d", t.V) }

// String renders the variable name.
func (t Var) String() string { return t.Name }

// String renders the operation with explicit parentheses.
func (t Bin) String() string {
	return "(" + t.X.String() + " " + t.Op.String() + " " + t.Y.String() + ")"
}

// String renders the negation.
func (t Neg) String() string { return "(-" + t.X.String() + ")" }

// ---------------------------------------------------------------------------
// Formulas

// Formula is a quantifier-free boolean formula over comparisons.
type Formula interface {
	formulaNode()
	String() string
}

// Bool is a truth constant.
type Bool struct{ V bool }

// True and False are the formula constants.
var (
	True  = Bool{V: true}
	False = Bool{V: false}
)

// CmpOp identifies a comparison operator.
type CmpOp int

// The comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the comparison operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Negated returns the complementary comparison (valid over integers).
func (op CmpOp) Negated() CmpOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	}
	return op
}

// Cmp is an atomic comparison between two terms.
type Cmp struct {
	Op   CmpOp
	X, Y Term
}

// Not is logical negation.
type Not struct{ F Formula }

// And is n-ary conjunction (true when empty).
type And struct{ Fs []Formula }

// Or is n-ary disjunction (false when empty).
type Or struct{ Fs []Formula }

func (Bool) formulaNode() {}
func (Cmp) formulaNode()  {}
func (Not) formulaNode()  {}
func (And) formulaNode()  {}
func (Or) formulaNode()   {}

// String renders the truth constant.
func (f Bool) String() string {
	if f.V {
		return "true"
	}
	return "false"
}

// String renders the comparison.
func (f Cmp) String() string {
	return "(" + f.X.String() + " " + f.Op.String() + " " + f.Y.String() + ")"
}

// String renders the negation.
func (f Not) String() string { return "!" + f.F.String() }

// String renders the conjunction.
func (f And) String() string { return joinFormulas(f.Fs, " && ", "true") }

// String renders the disjunction.
func (f Or) String() string { return joinFormulas(f.Fs, " || ", "false") }

func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// MkAnd builds a conjunction, flattening nested Ands and dropping
// trivially-true conjuncts; it short-circuits on false. It allocates
// only for a new conjunction of two or more conjuncts: a result of at
// most one conjunct, and a single And argument (flattening one level
// leaves it as it is), come back without allocating.
func MkAnd(fs ...Formula) Formula {
	n := 0
	var one Formula
	for _, f := range fs {
		switch g := f.(type) {
		case Bool:
			if !g.V {
				return False
			}
		case And:
			if len(g.Fs) > 0 {
				n, one = n+len(g.Fs), g.Fs[0]
			}
		default:
			n, one = n+1, f
		}
	}
	switch {
	case n == 0:
		return True
	case n == 1:
		return one
	case len(fs) == 1:
		return fs[0]
	}
	out := make([]Formula, 0, n)
	for _, f := range fs {
		switch g := f.(type) {
		case Bool:
		case And:
			out = append(out, g.Fs...)
		default:
			out = append(out, f)
		}
	}
	return And{Fs: out}
}

// MkOr builds a disjunction, flattening nested Ors and dropping
// trivially-false disjuncts; it short-circuits on true.
func MkOr(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case Bool:
			if f.V {
				return True
			}
		case Or:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return False
	case 1:
		return out[0]
	}
	return Or{Fs: out}
}

// MkNot builds a negation, eliminating double negations, flipping
// comparisons, and applying De Morgan on truth constants.
func MkNot(f Formula) Formula {
	switch f := f.(type) {
	case Bool:
		return Bool{V: !f.V}
	case Not:
		return f.F
	case Cmp:
		return Cmp{Op: f.Op.Negated(), X: f.X, Y: f.Y}
	}
	return Not{F: f}
}

// ---------------------------------------------------------------------------
// Traversals

// TermVars adds the variables of t to out.
func TermVars(t Term, out map[string]struct{}) {
	switch t := t.(type) {
	case Const:
	case Var:
		out[t.Name] = struct{}{}
	case Bin:
		TermVars(t.X, out)
		TermVars(t.Y, out)
	case Neg:
		TermVars(t.X, out)
	}
}

// Vars returns the sorted variable names occurring in f.
func Vars(f Formula) []string {
	set := make(map[string]struct{})
	collectVars(f, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectVars(f Formula, out map[string]struct{}) {
	switch f := f.(type) {
	case Bool:
	case Cmp:
		TermVars(f.X, out)
		TermVars(f.Y, out)
	case Not:
		collectVars(f.F, out)
	case And:
		for _, g := range f.Fs {
			collectVars(g, out)
		}
	case Or:
		for _, g := range f.Fs {
			collectVars(g, out)
		}
	}
}

// SubstTerm replaces variables in t according to sub (variables not in
// sub are kept).
func SubstTerm(t Term, sub map[string]Term) Term {
	switch t := t.(type) {
	case Const:
		return t
	case Var:
		if r, ok := sub[t.Name]; ok {
			return r
		}
		return t
	case Bin:
		return Bin{Op: t.Op, X: SubstTerm(t.X, sub), Y: SubstTerm(t.Y, sub)}
	case Neg:
		return Neg{X: SubstTerm(t.X, sub)}
	}
	return t
}

// Subst replaces variables in f according to sub.
func Subst(f Formula, sub map[string]Term) Formula {
	switch f := f.(type) {
	case Bool:
		return f
	case Cmp:
		return Cmp{Op: f.Op, X: SubstTerm(f.X, sub), Y: SubstTerm(f.Y, sub)}
	case Not:
		return Not{F: Subst(f.F, sub)}
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = Subst(g, sub)
		}
		return And{Fs: out}
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = Subst(g, sub)
		}
		return Or{Fs: out}
	}
	return f
}

// Subst1 is Subst with the one-entry map {name: t}, built without the
// map: it returns f itself when name does not occur in f, and otherwise
// shares every subformula and subterm the substitution leaves
// unchanged. The result is structurally Equal to Subst's.
func Subst1(f Formula, name string, t Term) Formula {
	g, _ := subst1(f, name, t)
	return g
}

// subst1 returns Subst1(f, name, t) and whether it differs from f.
func subst1(f Formula, name string, t Term) (Formula, bool) {
	switch g := f.(type) {
	case Cmp:
		x, cx := substTerm1(g.X, name, t)
		y, cy := substTerm1(g.Y, name, t)
		if cx || cy {
			return Cmp{Op: g.Op, X: x, Y: y}, true
		}
	case Not:
		if h, ch := subst1(g.F, name, t); ch {
			return Not{F: h}, true
		}
	case And:
		if fs, ch := substAll1(g.Fs, name, t); ch {
			return And{Fs: fs}, true
		}
	case Or:
		if fs, ch := substAll1(g.Fs, name, t); ch {
			return Or{Fs: fs}, true
		}
	}
	return f, false
}

// substAll1 substitutes into each of fs, copying the slice only once
// an element changes.
func substAll1(fs []Formula, name string, t Term) ([]Formula, bool) {
	var out []Formula
	for i, f := range fs {
		g, ch := subst1(f, name, t)
		if ch && out == nil {
			out = make([]Formula, len(fs))
			copy(out, fs[:i])
		}
		if out != nil {
			out[i] = g
		}
	}
	return out, out != nil
}

// substTerm1 is substTerm under {name: t}, reporting whether u changed.
func substTerm1(u Term, name string, t Term) (Term, bool) {
	switch v := u.(type) {
	case Var:
		if v.Name == name {
			return t, true
		}
	case Bin:
		x, cx := substTerm1(v.X, name, t)
		y, cy := substTerm1(v.Y, name, t)
		if cx || cy {
			return Bin{Op: v.Op, X: x, Y: y}, true
		}
	case Neg:
		if x, ch := substTerm1(v.X, name, t); ch {
			return Neg{X: x}, true
		}
	}
	return u, false
}

// NNF converts f to negation normal form: negations appear only on
// atoms, and atomic negations are folded into the comparison operator.
func NNF(f Formula) Formula {
	return nnf(f, false)
}

func nnf(f Formula, neg bool) Formula {
	switch f := f.(type) {
	case Bool:
		return Bool{V: f.V != neg}
	case Cmp:
		if neg {
			return Cmp{Op: f.Op.Negated(), X: f.X, Y: f.Y}
		}
		return f
	case Not:
		return nnf(f.F, !neg)
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = nnf(g, neg)
		}
		if neg {
			return MkOr(out...)
		}
		return MkAnd(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = nnf(g, neg)
		}
		if neg {
			return MkAnd(out...)
		}
		return MkOr(out...)
	}
	return f
}

// ---------------------------------------------------------------------------
// Evaluation

// ErrDivByZero reports division or modulo by zero during evaluation.
type ErrDivByZero struct{ T Term }

// Error implements the error interface.
func (e ErrDivByZero) Error() string { return "division by zero in " + e.T.String() }

// ErrUnbound reports an unbound variable during evaluation.
type ErrUnbound struct{ Name string }

// Error implements the error interface.
func (e ErrUnbound) Error() string { return "unbound variable " + e.Name }

// EvalTerm evaluates t under env using C semantics for / and %.
func EvalTerm(t Term, env map[string]int64) (int64, error) {
	switch t := t.(type) {
	case Const:
		return t.V, nil
	case Var:
		v, ok := env[t.Name]
		if !ok {
			return 0, ErrUnbound{Name: t.Name}
		}
		return v, nil
	case Bin:
		x, err := EvalTerm(t.X, env)
		if err != nil {
			return 0, err
		}
		y, err := EvalTerm(t.Y, env)
		if err != nil {
			return 0, err
		}
		switch t.Op {
		case OpAdd:
			return x + y, nil
		case OpSub:
			return x - y, nil
		case OpMul:
			return x * y, nil
		case OpDiv:
			if y == 0 {
				return 0, ErrDivByZero{T: t}
			}
			return x / y, nil // Go's / truncates toward zero, like C
		case OpMod:
			if y == 0 {
				return 0, ErrDivByZero{T: t}
			}
			return x % y, nil
		}
	case Neg:
		x, err := EvalTerm(t.X, env)
		if err != nil {
			return 0, err
		}
		return -x, nil
	}
	return 0, fmt.Errorf("logic: unknown term %T", t)
}

// Eval evaluates f under env.
func Eval(f Formula, env map[string]int64) (bool, error) {
	switch f := f.(type) {
	case Bool:
		return f.V, nil
	case Cmp:
		x, err := EvalTerm(f.X, env)
		if err != nil {
			return false, err
		}
		y, err := EvalTerm(f.Y, env)
		if err != nil {
			return false, err
		}
		switch f.Op {
		case CmpEq:
			return x == y, nil
		case CmpNe:
			return x != y, nil
		case CmpLt:
			return x < y, nil
		case CmpLe:
			return x <= y, nil
		case CmpGt:
			return x > y, nil
		case CmpGe:
			return x >= y, nil
		}
	case Not:
		v, err := Eval(f.F, env)
		return !v, err
	case And:
		for _, g := range f.Fs {
			v, err := Eval(g, env)
			if err != nil {
				return false, err
			}
			if !v {
				return false, nil
			}
		}
		return true, nil
	case Or:
		for _, g := range f.Fs {
			v, err := Eval(g, env)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("logic: unknown formula %T", f)
}

// Equal reports structural equality of formulas by an allocation-free
// walk.
func Equal(a, b Formula) bool {
	switch a := a.(type) {
	case Bool:
		b, ok := b.(Bool)
		return ok && a.V == b.V
	case Cmp:
		b, ok := b.(Cmp)
		return ok && a.Op == b.Op && EqualTerms(a.X, b.X) && EqualTerms(a.Y, b.Y)
	case Not:
		b, ok := b.(Not)
		return ok && Equal(a.F, b.F)
	case And:
		b, ok := b.(And)
		return ok && equalFormulas(a.Fs, b.Fs)
	case Or:
		b, ok := b.(Or)
		return ok && equalFormulas(a.Fs, b.Fs)
	}
	return false
}

func equalFormulas(a, b []Formula) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// EqualTerms reports structural equality of terms.
func EqualTerms(a, b Term) bool {
	switch a := a.(type) {
	case Const:
		b, ok := b.(Const)
		return ok && a.V == b.V
	case Var:
		b, ok := b.(Var)
		return ok && a.Name == b.Name
	case Bin:
		b, ok := b.(Bin)
		return ok && a.Op == b.Op && EqualTerms(a.X, b.X) && EqualTerms(a.Y, b.Y)
	case Neg:
		b, ok := b.(Neg)
		return ok && EqualTerms(a.X, b.X)
	}
	return false
}

// Size returns the number of nodes (formula connectives, comparison
// atoms, and term operators/leaves) in f — the formula-size measure
// the observability layer reports for WP and trace formulas.
func Size(f Formula) int {
	switch f := f.(type) {
	case Bool:
		return 1
	case Cmp:
		return 1 + termSize(f.X) + termSize(f.Y)
	case Not:
		return 1 + Size(f.F)
	case And:
		n := 1
		for _, g := range f.Fs {
			n += Size(g)
		}
		return n
	case Or:
		n := 1
		for _, g := range f.Fs {
			n += Size(g)
		}
		return n
	}
	return 1
}

func termSize(t Term) int {
	switch t := t.(type) {
	case Bin:
		return 1 + termSize(t.X) + termSize(t.Y)
	case Neg:
		return 1 + termSize(t.X)
	default:
		return 1
	}
}
