package wp

import (
	"fmt"
	"sort"
	"strings"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/lang/ast"
	"pathslice/internal/logic"
)

// ConvertPerCall is the reference for CompiledOp.WP: WP.φ.op with the
// operation converted at *freshID itself (predNoSSA or termNoSSA, then
// the store's targets), as WPOp did before operations were compiled:
// through the SSA trace encoder, then stripping its "@0" versions and
// numbering its $in inputs by substitution.
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

// predNoSSA converts a predicate over plain (non-SSA) variable names.
// Fresh variables ($in from nondet or boolean reification) are renamed
// through freshID so distinct operations never share them.
func predNoSSA(expr ast.Expr, al *alias.Info, addrs *AddrMap, freshID *int) (logic.Formula, []logic.Formula) {
	enc := &TraceEncoder{alias: al, addrs: addrs, version: map[string]int{}}
	f, side := enc.pred(expr)
	sub := stripSubst(append([]logic.Formula{f}, side...), freshID)
	out := make([]logic.Formula, len(side))
	for i, s := range side {
		out[i] = logic.Subst(s, sub)
	}
	return logic.Subst(f, sub), out
}

// termNoSSA converts an expression over plain variable names.
func termNoSSA(expr ast.Expr, al *alias.Info, addrs *AddrMap, freshID *int) (logic.Term, []logic.Formula) {
	enc := &TraceEncoder{alias: al, addrs: addrs, version: map[string]int{}}
	t, side := enc.term(expr)
	vars := make(map[string]struct{})
	logic.TermVars(t, vars)
	fs := make([]logic.Formula, 0, len(side)+1)
	fs = append(fs, side...)
	sub := stripSubstNames(vars, freshID)
	addSubstFromFormulas(fs, sub, freshID)
	out := make([]logic.Formula, len(side))
	for i, s := range side {
		out[i] = logic.Subst(s, sub)
	}
	return logic.SubstTerm(t, sub), out
}

// stripSubst builds a substitution that removes "@0" SSA suffixes and
// uniquifies fresh "$in" variables across calls.
func stripSubst(fs []logic.Formula, freshID *int) map[string]logic.Term {
	sub := make(map[string]logic.Term)
	addSubstFromFormulas(fs, sub, freshID)
	return sub
}

func addSubstFromFormulas(fs []logic.Formula, sub map[string]logic.Term, freshID *int) {
	names := make(map[string]struct{})
	for _, f := range fs {
		for _, v := range logic.Vars(f) {
			names[v] = struct{}{}
		}
	}
	// Sorted iteration: freshID is consumed per name, so the order
	// decides which $f number each variable gets. Keeping it
	// deterministic keeps the emitted formulas — and hence the solver
	// cache keys — identical across runs.
	for _, name := range sortedNames(names) {
		addStrip(name, sub, freshID)
	}
}

func stripSubstNames(names map[string]struct{}, freshID *int) map[string]logic.Term {
	sub := make(map[string]logic.Term)
	for _, name := range sortedNames(names) {
		addStrip(name, sub, freshID)
	}
	return sub
}

func sortedNames(names map[string]struct{}) []string {
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func addStrip(name string, sub map[string]logic.Term, freshID *int) {
	if _, done := sub[name]; done {
		return
	}
	if base, ok := strings.CutSuffix(name, "@0"); ok {
		sub[name] = logic.Var{Name: base}
		return
	}
	if strings.HasPrefix(name, "$in") {
		*freshID++
		sub[name] = logic.Var{Name: freshName(*freshID)}
	}
}
