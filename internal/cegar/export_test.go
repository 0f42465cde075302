package cegar

import (
	"context"

	"pathslice/internal/cfa"
	"pathslice/internal/logic"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// EntailTally counts the entailments a checker's posts decided and how
// many of them disagree with the full query.
type EntailTally struct{ Checked, Disagreed int }

// CrossCheckEntailments makes c decide every entailment its posts
// compute a second time, without the frame rule and the cone: on the
// whole precondition, through uncached smt.SolveCtx. Disagreements are
// counted in t.
func CrossCheckEntailments(c *Checker, t *EntailTally) {
	c.checkEntail = func(st *absState, e *cfa.Edge, preds []predicate, i int, got int8) {
		t.Checked++
		if fullEntailment(c, st, e, preds, i) != got {
			t.Disagreed++
		}
	}
}

// PlantOverEagerCone makes c's cone leave out one connected conjunct
// of every non-empty cone.
func PlantOverEagerCone(c *Checker) { c.dropConnected = true }

// fullEntailment is predicate i's successor value as the full query
// decides it: the source's determined literals and the assume, conjoined
// with wp(¬p), then with wp(p).
func fullEntailment(c *Checker, st *absState, e *cfa.Edge, preds []predicate, i int) int8 {
	var fs []logic.Formula
	for j, v := range st.vals {
		switch v {
		case 1:
			fs = append(fs, preds[j].f)
		case -1:
			fs = append(fs, logic.MkNot(preds[j].f))
		}
	}
	fresh := (i + 1) * freshStride
	p := preds[i].f
	wpP := wp.WPOp(p, e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh)
	wpNotP := wp.WPOp(logic.MkNot(p), e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh)
	if e.Op.Kind == cfa.OpAssume {
		fs = append(fs, wp.WPOp(logic.True, e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh))
	}
	pre := logic.MkAnd(fs...)
	unsat := func(f logic.Formula) bool {
		return smt.SolveCtx(context.Background(), f, c.opts.SolverLimits).Status == smt.StatusUnsat
	}
	switch {
	case unsat(logic.MkAnd(pre, wpNotP)):
		return 1
	case unsat(logic.MkAnd(pre, wpP)):
		return -1
	}
	return 0
}
