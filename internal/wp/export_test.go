package wp

import (
	"fmt"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/logic"
)

// ConvertPerCall is the reference for CompiledOp.WP: WP.φ.op with the
// operation converted at *freshID itself (predNoSSA or termNoSSA, then
// the store's targets), as WPOp did before operations were compiled.
func ConvertPerCall(phi logic.Formula, op cfa.Op, al *alias.Info, addrs *AddrMap, freshID *int) logic.Formula {
	switch op.Kind {
	case cfa.OpAssume:
		pred, side := predNoSSA(op.Pred, al, addrs, freshID)
		return logic.MkAnd(append(side, pred, phi)...)
	case cfa.OpAssign:
		rhs, side := termNoSSA(op.RHS, al, addrs, freshID)
		if !op.LHS.Deref {
			sub := map[string]logic.Term{op.LHS.Var: rhs}
			return logic.MkAnd(append(side, logic.Subst(phi, sub))...)
		}
		targets := al.Pts(op.LHS.Var)
		if len(targets) == 1 {
			sub := map[string]logic.Term{targets[0]: rhs}
			return logic.MkAnd(append(side, logic.Subst(phi, sub))...)
		}
		sub := make(map[string]logic.Term)
		for _, x := range targets {
			*freshID++
			sub[x] = logic.Var{Name: fmt.Sprintf("$h%d", *freshID)}
		}
		return logic.MkAnd(append(side, logic.Subst(phi, sub))...)
	default:
		return phi
	}
}

// ApplyWithoutRenaming plants a CompiledOp.WP that skips the renaming:
// it applies c as if the counter were 0, keeping the names minted at
// compile time, and advances *freshID by as many names as that minted.
func ApplyWithoutRenaming(c *CompiledOp, phi logic.Formula, freshID *int) logic.Formula {
	minted := 0
	f := c.WP(phi, &minted)
	*freshID += minted
	return f
}
