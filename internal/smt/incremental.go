package smt

import (
	"context"
	"time"

	"pathslice/internal/faults"
	"pathslice/internal/logic"
	"pathslice/internal/obs"
)

// Incremental interface (for the slicer's early-stop optimization and
// the refiner's feasibility checks, §4.2 of the paper — which assumes
// an *incremental* decision procedure).
//
// Unlike the from-scratch SolveCtx, a Solver keeps its decision state
// alive across Check calls:
//
//   - assertions are linearized exactly once, when asserted;
//   - the simplex tableau is retained between checks and warm-started
//     from the last feasible basis — a check after k new assertions
//     re-pivots the existing tableau with k new rows instead of
//     rebuilding and re-solving all n, with a from-scratch rebuild as
//     fallback when warm re-pivoting exhausts its budget.
//
// The engine handles pure conjunctions of (in)equalities natively —
// the shape every trace-formula assertion has. Assertions with
// residual boolean structure (Or after NNF; pointer-dereference
// guards) make definitive Sat answers fall back to the case-splitting
// SolveCtx; an Unsat from the conjunctive sub-engine is still final,
// because an unsatisfiable subset refutes the whole conjunction. The
// same fallback runs when the incremental engine answers Unknown for
// any reason other than an expired deadline, so the incremental path
// never *loses* verdicts relative to from-scratch solving (see the
// differential harness in diff_test.go).
//
// Verdict invariants match SolveCtx: Unsat is exact, Sat is validated
// against the original formulas whenever nonlinear abstraction was
// involved, Unknown only on limits, deadlines, or injected faults.

// warmPivotBudget bounds the pivots of a single warm-started simplex
// check (and each branch-and-bound node check). Exhaustion triggers a
// from-scratch tableau rebuild, counted in
// smt_warm_start_rebuilds_total.
const warmPivotBudget = 20000

// Solver is an incremental conjunction of formulas with a persistent
// Unsat state: once the asserted set is unsatisfiable it stays so,
// since asserting more cannot make it satisfiable again.
type Solver struct {
	asserted []logic.Formula
	lim      Limits
	lastUns  bool
	// Stats
	Checks int

	// Persistent conjunctive engine state.
	lin     *linearizer     // shared across checks: atoms linearized once
	atoms   []LinAtom       // conjunctive atoms of all assertions
	nes     []neAtom        // deferred disequalities
	complex []logic.Formula // assertions with boolean structure (fallback)

	sx      *simplex
	sxAtoms int  // atoms already realized as tableau rows
	warm    bool // a check has run on the current tableau
}

// NewSolver returns an empty incremental solver.
func NewSolver() *Solver { return &Solver{lin: newLinearizer()} }

// NewSolverWithLimits returns an empty solver with custom limits.
func NewSolverWithLimits(lim Limits) *Solver { return &Solver{lin: newLinearizer(), lim: lim} }

// Assert conjoins f to the asserted set. The formula is decomposed
// into the persistent conjunctive state immediately; the next Check
// only pays for this delta.
func (s *Solver) Assert(f logic.Formula) {
	s.asserted = append(s.asserted, f)
	if s.lin == nil {
		s.lin = newLinearizer()
	}
	s.addConjuncts(logic.NNF(logic.Simplify(f)))
}

// addConjuncts splits a normalized assertion into linear atoms,
// deferred disequalities, and residual boolean structure.
func (s *Solver) addConjuncts(f logic.Formula) {
	switch f := f.(type) {
	case logic.Bool:
		if !f.V {
			// An asserted contradiction: the atom 1 ≤ 0.
			s.atoms = append(s.atoms, LinAtom{Kind: AtomLe, Expr: LinExpr{Const: numInt(1)}})
		}
	case logic.And:
		for _, g := range f.Fs {
			s.addConjuncts(g)
		}
	case logic.Cmp:
		r := s.lin.cmp(f)
		if len(r.split) == 2 {
			s.nes = append(s.nes, neAtom{lt: r.split[0], gt: r.split[1]})
		} else {
			s.atoms = append(s.atoms, r.atoms...)
		}
	default:
		s.complex = append(s.complex, f)
	}
}

// Check decides the conjunction of all asserted formulas.
func (s *Solver) Check() Result { return s.CheckCtx(context.Background()) }

// CheckCtx decides the conjunction of all asserted formulas under ctx:
// on cancellation or deadline expiry the verdict is StatusUnknown
// (never recorded as a persistent Unsat).
func (s *Solver) CheckCtx(ctx context.Context) Result {
	if s.lastUns {
		mIncrementalReuse.Inc()
		return Result{Status: StatusUnsat}
	}
	s.Checks++
	if ctx == nil {
		ctx = context.Background()
	}
	lim := s.lim.withDefaults()
	if lim.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Deadline)
		defer cancel()
	}
	r, final := s.checkFast(ctx, lim)
	if !final {
		// Residual boolean structure or an inconclusive incremental
		// answer: decide from scratch with the case-splitting solver.
		r = SolveCtx(ctx, logic.MkAnd(s.asserted...), lim)
	}
	if r.Status == StatusUnsat {
		s.lastUns = true
	}
	return r
}

// checkFast runs the persistent conjunctive engine. final reports
// whether the result is authoritative; when false the caller must
// re-solve from scratch (the span and solve metrics of that path are
// emitted by SolveCtx itself, so this attempt stays silent).
func (s *Solver) checkFast(ctx context.Context, lim Limits) (Result, bool) {
	sp := obs.StartSpan(obs.PhaseSMT)
	defer sp.End()
	start := time.Now()
	// Fault injection, exactly as in SolveCtx (docs/ROBUSTNESS.md).
	if in := faults.Active(); in != nil {
		if in.Should(faults.SolverStall) {
			if d := in.StallDuration(); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
				case <-t.C:
				}
			}
		}
		if in.Should(faults.SolverUnknown) {
			mSolves.Inc()
			mUnknown.Inc()
			return Result{Status: StatusUnknown}, true
		}
	}
	if s.warm {
		mIncrementalReuse.Inc()
	}
	var st Status
	var model map[string]int64
	if ctx.Err() != nil {
		st = StatusUnknown
	} else {
		st, model = s.solveConj(ctx, lim)
	}
	s.warm = true
	final := st == StatusUnsat ||
		(st == StatusSat && len(s.complex) == 0) ||
		(st == StatusUnknown && ctx.Err() != nil) // re-solving under a dead ctx is pointless
	if !final {
		return Result{Status: StatusUnknown}, false
	}
	mSolves.Inc()
	mSolveNS.ObserveDuration(time.Since(start))
	switch st {
	case StatusSat:
		mSat.Inc()
		return Result{Status: StatusSat, Model: model}, true
	case StatusUnsat:
		mUnsat.Inc()
		return Result{Status: StatusUnsat}, true
	default:
		mUnknown.Inc()
		if ctx.Err() != nil {
			mDeadlineExceeded.Inc()
		}
		return Result{Status: StatusUnknown}, true
	}
}

// solveConj decides the conjunction of the persistent linear atoms and
// deferred disequalities, reusing all state from previous checks.
func (s *Solver) solveConj(ctx context.Context, lim Limits) (Status, map[string]int64) {
	// 1. Realize tableau rows for the new atoms (with the per-atom GCD
	// integrality test the from-scratch path also applies).
	if s.ensureRows() == StatusUnsat {
		return StatusUnsat, nil
	}
	// 2. Rational feasibility, warm-started from the retained basis.
	warmAttempt := s.warm
	st := s.sx.checkCtx(ctx, warmPivotBudget)
	if st == StatusUnknown && ctx.Err() == nil {
		mWarmStartRebuilds.Inc()
		if s.rebuild() == StatusUnsat {
			return StatusUnsat, nil
		}
		st = s.sx.checkCtx(ctx, maxPivots)
	} else if st != StatusUnknown && warmAttempt {
		mWarmStartHits.Inc()
	}
	switch st {
	case StatusUnsat:
		return StatusUnsat, nil
	case StatusUnknown:
		return StatusUnknown, nil
	}
	// 3. Integrality and lazy disequality splitting, branching by
	// pushing trailed bounds/rows onto the retained tableau.
	leaves := 0
	// The tableau was just decided feasible above; the top-level leaf
	// must not re-check it (preChecked) — on the hot early-stop path
	// that second full-tableau scan would double the cost of a check.
	st, numModel := s.leafInc(ctx, lim, &leaves, s.nes, true)
	mLeafChecks.Add(int64(leaves))
	if st != StatusSat {
		return st, nil
	}
	model, ok := int64Model(numModel)
	if !ok {
		return StatusUnknown, nil
	}
	if s.lin.used {
		// Nonlinear abstraction was involved: the candidate model must
		// satisfy the original formulas. A failure degrades to Unknown
		// and the caller's from-scratch fallback runs the full
		// multi-model search.
		mModelValid.Inc()
		if !s.validateConj(model) {
			return StatusUnknown, nil
		}
	}
	return StatusSat, projectModel(model)
}

// ensureRows appends tableau rows for atoms not yet realized. It
// returns StatusUnsat when a new atom is integer-infeasible on its own
// (GCD test / contradictory constant).
func (s *Solver) ensureRows() Status {
	if s.sx == nil {
		s.sx = newSimplex()
		s.sx.recording = true
		s.sxAtoms = 0
		s.warm = false
	}
	st := StatusUnknown
	for ; s.sxAtoms < len(s.atoms); s.sxAtoms++ {
		a := s.atoms[s.sxAtoms]
		if gcdInfeasible(a) {
			st = StatusUnsat // keep realizing rows so sxAtoms stays in sync
		}
		addAtomRow(s.sx, a)
	}
	return st
}

// rebuild discards the tableau and realizes every atom afresh —
// the fallback when warm re-pivoting exhausts its budget.
func (s *Solver) rebuild() Status {
	s.sx = nil
	return s.ensureRows()
}

// leafInc is the incremental counterpart of searcher.leaf: decide the
// tableau, branch-and-bound for integrality, and lazily split on a
// disequality the candidate model violates. All branching is done by
// pushing trailed state onto the retained tableau and popping it on
// the way out.
func (s *Solver) leafInc(ctx context.Context, lim Limits, leaves *int, nes []neAtom, preChecked bool) (Status, map[string]num) {
	*leaves++
	if *leaves > lim.MaxLeaves {
		return StatusUnknown, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return StatusUnknown, nil
	}
	if !preChecked {
		switch s.sx.checkCtx(ctx, warmPivotBudget) {
		case StatusUnsat:
			return StatusUnsat, nil
		case StatusUnknown:
			return StatusUnknown, nil
		}
	}
	st, model := s.bbInc(ctx, lim.MaxBBDepth)
	if st != StatusSat {
		return st, nil
	}
	for i, ne := range nes {
		if linAtomHolds(ne.lt, model) || linAtomHolds(ne.gt, model) {
			continue
		}
		// Violated: the model makes both sides equal. Branch on the two
		// strict alternatives.
		rest := make([]neAtom, 0, len(nes)-1)
		rest = append(rest, nes[:i]...)
		rest = append(rest, nes[i+1:]...)
		sawUnknown := false
		for _, side := range [2]LinAtom{ne.lt, ne.gt} {
			m := s.sx.mark()
			addAtomRow(s.sx, side)
			st2, model2 := s.leafInc(ctx, lim, leaves, rest, false)
			s.sx.popTo(m)
			if st2 == StatusSat {
				return StatusSat, model2
			}
			if st2 == StatusUnknown {
				sawUnknown = true
			}
		}
		if sawUnknown {
			return StatusUnknown, nil
		}
		return StatusUnsat, nil
	}
	return StatusSat, model
}

// bbInc is branch-and-bound on the retained tableau: instead of
// rebuilding a simplex per node (the from-scratch path), each branch
// pushes one trailed bound, re-pivots, recurses, and pops. It branches
// on the smallest-named fractional variable, the from-scratch path's
// order, for reproducible statuses.
func (s *Solver) bbInc(ctx context.Context, depth int) (Status, map[string]num) {
	if ctx != nil && ctx.Err() != nil {
		return StatusUnknown, nil
	}
	name, frac, ok := s.sx.fractional()
	if !ok {
		return StatusSat, s.sx.model()
	}
	if depth <= 0 {
		return StatusUnknown, nil
	}
	floor := frac.floor()
	hi := bound{v: floor, ok: true}
	lo := bound{v: floor.add(numInt(1)), ok: true}
	st1, m1 := s.bbBranch(ctx, name, bound{}, hi, depth)
	if st1 == StatusSat {
		return st1, m1
	}
	st2, m2 := s.bbBranch(ctx, name, lo, bound{}, depth)
	if st2 == StatusSat {
		return st2, m2
	}
	if st1 == StatusUnsat && st2 == StatusUnsat {
		return StatusUnsat, nil
	}
	return StatusUnknown, nil
}

func (s *Solver) bbBranch(ctx context.Context, name string, lo, hi bound, depth int) (Status, map[string]num) {
	m := s.sx.mark()
	defer s.sx.popTo(m)
	if !s.sx.setBounds(name, lo, hi) {
		return StatusUnsat, nil
	}
	switch s.sx.checkCtx(ctx, warmPivotBudget) {
	case StatusUnsat:
		return StatusUnsat, nil
	case StatusUnknown:
		return StatusUnknown, nil
	}
	return s.bbInc(ctx, depth-1)
}

// validateConj checks the candidate model against the original
// asserted formulas (0 for variables the model does not mention).
func (s *Solver) validateConj(model map[string]int64) bool {
	env := make(map[string]int64)
	for _, f := range s.asserted {
		for _, v := range logic.Vars(f) {
			if _, ok := env[v]; !ok {
				env[v] = model[v]
			}
		}
	}
	for _, f := range s.asserted {
		ok, err := logic.Eval(f, env)
		if err != nil || !ok {
			return false
		}
	}
	return true
}
