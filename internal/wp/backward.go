package wp

import (
	"pathslice/internal/cfa"
	"pathslice/internal/lang/ast"
	"pathslice/internal/logic"
)

// EncodeOpBackward returns the SSA constraint for op when the trace is
// being traversed backward (as Algorithm PathSlice does): version
// numbers count assignments seen from the right, so "current" names
// denote values flowing into the already-processed suffix. Asserting
// these constraints in backward order yields a conjunction
// equisatisfiable with the forward encoding — this is what the
// "unsatisfiable path slices" optimization of §4.2 asserts
// incrementally into the decision procedure.
func (e *TraceEncoder) EncodeOpBackward(op cfa.Op) logic.Formula {
	switch op.Kind {
	case cfa.OpAssume:
		f, side := e.pred(op.Pred)
		return logic.MkAnd(append(side, f)...)
	case cfa.OpAssign:
		return e.assignBackward(op.LHS, op.RHS)
	default:
		return logic.True
	}
}

func (e *TraceEncoder) assignBackward(lhs cfa.Lvalue, rhs ast.Expr) logic.Formula {
	if !lhs.Deref {
		post := e.cur(lhs.Var)
		e.version[lhs.Var]++ // older occurrences now read the pre-value
		rhsTerm, side := e.term(rhs)
		return logic.MkAnd(append(side, logic.Cmp{Op: logic.CmpEq, X: post, Y: rhsTerm})...)
	}
	targets := e.alias.Pts(lhs.Var)
	if len(targets) == 0 {
		return logic.False
	}
	// Post-values of all may-targets, then bump to expose pre-values.
	posts := make([]logic.Term, len(targets))
	for i, x := range targets {
		posts[i] = e.cur(x)
		e.version[x]++
	}
	rhsTerm, side := e.term(rhs)
	p := e.cur(lhs.Var) // pointers are never targets; version unaffected
	fs := append([]logic.Formula{}, side...)
	var valid []logic.Formula
	for i, x := range targets {
		ax := logic.Const{V: e.addrs.MustAddr(x)}
		pre := e.cur(x)
		eqA := logic.Cmp{Op: logic.CmpEq, X: p, Y: ax}
		fs = append(fs,
			logic.MkOr(logic.MkNot(eqA), logic.Cmp{Op: logic.CmpEq, X: posts[i], Y: rhsTerm}),
			logic.MkOr(eqA, logic.Cmp{Op: logic.CmpEq, X: posts[i], Y: pre}),
		)
		valid = append(valid, eqA)
	}
	fs = append(fs, logic.MkOr(valid...))
	return logic.MkAnd(fs...)
}
