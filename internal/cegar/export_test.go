package cegar

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"pathslice/internal/cfa"
	"pathslice/internal/logic"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// EntailTally counts the entailments and prunes a checker's posts
// decided and how many of each disagree with the full query.
type EntailTally struct {
	Checked, Disagreed             int
	PrunesChecked, PrunesDisagreed int
}

// CrossCheckEntailments makes c decide every entailment and every
// prune its posts compute a second time, without the frame rule and
// the cones: on the whole precondition, through uncached smt.SolveCtx.
// Disagreements are counted in t.
func CrossCheckEntailments(c *Checker, t *EntailTally) {
	c.checkEntail = func(st *absState, e *cfa.Edge, preds []predicate, i int, got int8) {
		t.Checked++
		if fullEntailment(c, st, e, preds, i) != got {
			t.Disagreed++
		}
	}
	c.checkPrune = func(st *absState, e *cfa.Edge, preds []predicate, pruned bool) {
		t.PrunesChecked++
		fresh := 0
		pre := append(literals(st, preds), wp.WPOp(logic.True, e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh))
		if unsat(c, logic.MkAnd(pre...)) != pruned {
			t.PrunesDisagreed++
		}
	}
}

// PlantOverEagerCone makes c leave out one connected precondition
// conjunct of every entailment component that has one.
func PlantOverEagerCone(c *Checker) { c.dropConnected = true }

// PlantOverEagerGuardCone makes c's prune queries leave out one
// determined literal connected to the assume, where there is one.
func PlantOverEagerGuardCone(c *Checker) { c.dropGuardLiteral = true }

// PlantCopyUndetermined makes c copy undetermined values across
// assumes too, not only determined ones.
func PlantCopyUndetermined(c *Checker) { c.copyUndetermined = true }

// PlantSkipLastComponent makes c call the last component of each
// entailment query Sat without deciding it.
func PlantSkipLastComponent(c *Checker) { c.skipLastComponent = true }

// Refinement is what one refinement of a check mined.
type Refinement struct {
	// FromCore reports whether the refinement solve answered Unsat, so
	// the refinement mined a minimized unsat core rather than the whole
	// trace formula.
	FromCore bool
	// Named lists the variables the mined core atoms name (none when
	// FromCore is false).
	Named []string
	// Constants lists every constant fact x == c along the slice, for
	// every variable x.
	Constants []logic.Cmp
	// Preds is the predicate list after the refinement, in order.
	Preds []logic.Formula
}

// RecordRefinements appends each refinement c makes to log.
func RecordRefinements(c *Checker, log *[]Refinement) {
	c.onRefine = func(fromCore bool, named map[string]struct{}, slice cfa.Path, preds []predicate) {
		r := Refinement{FromCore: fromCore}
		for x := range named {
			r.Named = append(r.Named, x)
		}
		c.constFacts(slice, func(x string, v int64) {
			r.Constants = append(r.Constants, constFact(x, v))
		})
		for _, p := range preds {
			r.Preds = append(r.Preds, p.f)
		}
		*log = append(*log, r)
	}
}

// ForceRefinementUnknown makes every refinement solve of c answer
// Unknown, as a deadline, a solver limit or an injected fault would.
func ForceRefinementUnknown(c *Checker) { c.refineUnknown = true }

// PlantEagerConstants makes c add every constant fact along the slice,
// whether or not a core atom names its variable.
func PlantEagerConstants(c *Checker) { c.eagerConstants = true }

// Orient is the orientation refinement stores a mined atom in.
func Orient(a logic.Cmp) logic.Cmp { return orient(a) }

// PostProbe reports a repeated post: the objects one repetition
// allocates, the memo hits of all of them and the states kept.
type PostProbe struct {
	Allocs   float64
	MemoHits int64
	Kept     int
}

// CoveredPostAllocs measures a post that the memo answers in full and
// whose successor the cover set already covers. From a state at the
// first assignment of the function main calls first, with that call on
// its stack, the predicates fs and the valuation vals, it computes and
// keeps the successor once, then repeats the same post under
// testing.AllocsPerRun.
func CoveredPostAllocs(c *Checker, fs []logic.Formula, vals []int8) PostProbe {
	c.readyMemo()
	preds := make([]predicate, len(fs))
	for i, f := range fs {
		preds[i] = c.newPredicate(f, f.String())
	}
	call := firstEdge(c.prog.Funcs[c.prog.Main], cfa.OpCall)
	e := firstEdge(c.prog.Funcs[call.Op.Callee], cfa.OpAssign)
	x := newExploration(c.prog, false, false)
	src := absState{loc: e.Src, stack: []*cfa.Edge{call}, vals: vals}
	x.covered(&src)
	st := x.keep(&src)
	ctx := context.Background()
	c.expand(ctx, x, st, e, preds)
	hits := c.memoHits
	allocs := testing.AllocsPerRun(100, func() { c.expand(ctx, x, st, e, preds) })
	kept := 0
	for v := x.head; v != nil; v = v.queue {
		kept++
	}
	return PostProbe{Allocs: allocs, MemoHits: c.memoHits - hits, Kept: kept}
}

// WatchReachRoots returns a probe of whether the root state of c's
// latest reach is gone: it runs a GC and reads a weak pointer to it.
func WatchReachRoots(c *Checker) (collected func() bool) {
	var root weak.Pointer[absState]
	c.reachRoot = func(st *absState) { root = weak.Make(st) }
	return func() bool {
		runtime.GC()
		return root.Value() == nil
	}
}

// PlantKeepExploration makes c keep its latest exploration, as a
// checker that reused reach's cover set and chunks across reaches
// would.
func PlantKeepExploration(c *Checker) { c.keepExploration = true }

// literals returns the source's determined literals.
func literals(st *absState, preds []predicate) []logic.Formula {
	var fs []logic.Formula
	for j, v := range st.vals {
		switch v {
		case 1:
			fs = append(fs, preds[j].f)
		case -1:
			fs = append(fs, logic.MkNot(preds[j].f))
		}
	}
	return fs
}

func unsat(c *Checker, f logic.Formula) bool {
	return smt.SolveCtx(context.Background(), f, c.opts.SolverLimits).Status == smt.StatusUnsat
}

// fullEntailment is predicate i's successor value as the full query
// decides it: the source's determined literals and the assume, conjoined
// with wp(¬p), then with wp(p).
func fullEntailment(c *Checker, st *absState, e *cfa.Edge, preds []predicate, i int) int8 {
	fs := literals(st, preds)
	fresh := (i + 1) * freshStride
	p := preds[i].f
	wpP := wp.WPOp(p, e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh)
	wpNotP := wp.WPOp(logic.MkNot(p), e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh)
	if e.Op.Kind == cfa.OpAssume {
		fs = append(fs, wp.WPOp(logic.True, e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh))
	}
	pre := logic.MkAnd(fs...)
	switch {
	case unsat(c, logic.MkAnd(pre, wpNotP)):
		return 1
	case unsat(c, logic.MkAnd(pre, wpP)):
		return -1
	}
	return 0
}

// firstEdge returns fn's first edge of the given kind.
func firstEdge(fn *cfa.CFA, kind cfa.OpKind) *cfa.Edge {
	for _, e := range fn.Edges {
		if e.Op.Kind == kind {
			return e
		}
	}
	return nil
}
