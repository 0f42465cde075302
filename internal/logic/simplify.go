package logic

// Simplify performs sound, cheap rewrites: constant folding in terms,
// evaluation of ground comparisons, unit laws in connectives, and
// recognition of syntactically identical operands (x == x, x < x).
// Trace formulas are full of such ground facts (SSA constants, the
// builder's assume(1) edges), and folding them before the solver runs
// shrinks the boolean search.
func Simplify(f Formula) Formula {
	switch f := f.(type) {
	case Bool:
		return f
	case Cmp:
		x := SimplifyTerm(f.X)
		y := SimplifyTerm(f.Y)
		if cx, ok := x.(Const); ok {
			if cy, ok := y.(Const); ok {
				return Bool{V: evalCmp(f.Op, cx.V, cy.V)}
			}
		}
		if EqualTerms(x, y) {
			switch f.Op {
			case CmpEq, CmpLe, CmpGe:
				return True
			case CmpNe, CmpLt, CmpGt:
				return False
			}
		}
		return Cmp{Op: f.Op, X: x, Y: y}
	case Not:
		return MkNot(Simplify(f.F))
	case And:
		out := make([]Formula, 0, len(f.Fs))
		for _, g := range f.Fs {
			out = append(out, Simplify(g))
		}
		return MkAnd(out...)
	case Or:
		out := make([]Formula, 0, len(f.Fs))
		for _, g := range f.Fs {
			out = append(out, Simplify(g))
		}
		return MkOr(out...)
	}
	return f
}

func evalCmp(op CmpOp, x, y int64) bool {
	switch op {
	case CmpEq:
		return x == y
	case CmpNe:
		return x != y
	case CmpLt:
		return x < y
	case CmpLe:
		return x <= y
	case CmpGt:
		return x > y
	case CmpGe:
		return x >= y
	}
	return false
}

// SimplifyTerm folds constants and applies identity/absorption laws.
// Overflow-prone folds are guarded: addition and multiplication only
// fold when the result provably fits int64.
func SimplifyTerm(t Term) Term {
	switch t := t.(type) {
	case Const, Var:
		return t
	case Neg:
		x := SimplifyTerm(t.X)
		if c, ok := x.(Const); ok && c.V != -c.V { // guard MinInt64
			return Const{V: -c.V}
		}
		if n, ok := x.(Neg); ok {
			return n.X
		}
		return Neg{X: x}
	case Bin:
		x := SimplifyTerm(t.X)
		y := SimplifyTerm(t.Y)
		cx, xConst := x.(Const)
		cy, yConst := y.(Const)
		switch t.Op {
		case OpAdd:
			if xConst && yConst {
				if s, ok := safeAdd(cx.V, cy.V); ok {
					return Const{V: s}
				}
			}
			if xConst && cx.V == 0 {
				return y
			}
			if yConst && cy.V == 0 {
				return x
			}
		case OpSub:
			if xConst && yConst {
				if s, ok := safeAdd(cx.V, -cy.V); ok && cy.V != -cy.V {
					return Const{V: s}
				}
			}
			if yConst && cy.V == 0 {
				return x
			}
			if EqualTerms(x, y) {
				return Const{V: 0}
			}
		case OpMul:
			if xConst && yConst {
				if p, ok := safeMul(cx.V, cy.V); ok {
					return Const{V: p}
				}
			}
			if xConst {
				switch cx.V {
				case 0:
					return Const{V: 0}
				case 1:
					return y
				}
			}
			if yConst {
				switch cy.V {
				case 0:
					return Const{V: 0}
				case 1:
					return x
				}
			}
		case OpDiv:
			if yConst && cy.V == 1 {
				return x
			}
			if xConst && yConst && cy.V != 0 {
				return Const{V: cx.V / cy.V}
			}
		case OpMod:
			if xConst && yConst && cy.V != 0 {
				return Const{V: cx.V % cy.V}
			}
			if yConst && cy.V == 1 {
				return Const{V: 0}
			}
		}
		return Bin{Op: t.Op, X: x, Y: y}
	}
	return t
}

func safeAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s > 0) {
		return 0, false
	}
	return s, true
}

func safeMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}
