package smt

import (
	"context"
	"time"

	"pathslice/internal/faults"
	"pathslice/internal/logic"
	"pathslice/internal/obs"
)

// Result is a solver verdict with a model when satisfiable.
type Result struct {
	Status Status
	// Model assigns integer values to the variables of the formula
	// when Status is StatusSat. Variables that do not constrain the
	// verdict may be absent; treat absent as 0.
	Model map[string]int64
}

// Limits bounds the search effort. Every exhausted limit makes the
// solver answer StatusUnknown — never a wrong Sat or Unsat — so
// callers can treat tight limits as a sound degradation knob (see
// docs/ROBUSTNESS.md).
type Limits struct {
	// MaxLeaves bounds the number of theory leaf checks (branch
	// combinations explored). Default 50000.
	MaxLeaves int
	// MaxBBDepth bounds branch-and-bound depth for integrality.
	// Default 40.
	MaxBBDepth int
	// Deadline, when positive, bounds the wall-clock time of a single
	// solve: the search is cancelled at the deadline and the verdict
	// is StatusUnknown. It composes with a caller context (whichever
	// expires first wins). Zero means no wall-clock bound.
	Deadline time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxLeaves <= 0 {
		l.MaxLeaves = 50000
	}
	if l.MaxBBDepth <= 0 {
		l.MaxBBDepth = 40
	}
	return l
}

// Solve decides satisfiability of f over the integers.
func Solve(f logic.Formula) Result { return SolveWithLimits(f, Limits{}) }

// SolveWithLimits decides satisfiability of f under explicit limits.
func SolveWithLimits(f logic.Formula, lim Limits) Result {
	return SolveCtx(context.Background(), f, lim)
}

// SolveCtx decides satisfiability of f under ctx and explicit limits.
// Cancellation or an expired deadline (from ctx or lim.Deadline,
// whichever comes first) yields StatusUnknown — the solver never
// hangs past the deadline by more than one theory-leaf check, and
// never converts a timeout into a wrong Sat/Unsat.
func SolveCtx(ctx context.Context, f logic.Formula, lim Limits) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	lim = lim.withDefaults()
	if lim.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Deadline)
		defer cancel()
	}
	sp := obs.StartSpan(obs.PhaseSMT)
	defer sp.End()
	start := time.Now()
	// Fault injection (docs/ROBUSTNESS.md): a stall simulates a hung
	// decision procedure (bounded by ctx); a forced Unknown simulates
	// resource exhaustion. Both are sound weakenings.
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
			return Result{Status: StatusUnknown}
		}
	}
	var st Status
	s := &searcher{lin: newLinearizer(), lim: lim, orig: f, ctx: ctx}
	if ctx.Err() != nil {
		st = StatusUnknown
	} else {
		nnf := logic.NNF(logic.Simplify(f))
		st = s.search(nil, nil, []logic.Formula{nnf})
	}
	mSolves.Inc()
	mLeafChecks.Add(int64(s.leaves))
	mModelValid.Add(int64(s.tried))
	mSolveNS.ObserveDuration(time.Since(start))
	switch st {
	case StatusSat:
		mSat.Inc()
	case StatusUnsat:
		mUnsat.Inc()
	default:
		mUnknown.Inc()
		if ctx.Err() != nil {
			mDeadlineExceeded.Inc()
		}
	}
	switch {
	case st == StatusSat:
		return Result{Status: StatusSat, Model: s.model}
	case st == StatusUnsat:
		return Result{Status: StatusUnsat}
	default:
		return Result{Status: StatusUnknown}
	}
}

type searcher struct {
	lin    *linearizer
	lim    Limits
	orig   logic.Formula
	ctx    context.Context
	leaves int
	tried  int
	model  map[string]int64
	// sawUnknown records that some branch was cut off, so an overall
	// failure to find a model must be Unknown rather than Unsat.
	sawUnknown bool
}

// cancelled polls the context; a cancelled search degrades to Unknown
// (sawUnknown forces the overall verdict away from Unsat).
func (s *searcher) cancelled() bool {
	if s.ctx == nil || s.ctx.Err() == nil {
		return false
	}
	s.sawUnknown = true
	return true
}

// neAtom is a deferred disequality: lt and gt are the two strict
// alternatives of an x ≠ y atom. Disequalities are not branched on
// eagerly — that costs 2^n leaf checks for n of them. Instead the leaf
// solves without them and only splits on a disequality the candidate
// model actually violates (the standard lazy treatment).
type neAtom struct {
	lt, gt LinAtom
}

// search explores the boolean structure: atoms is the conjunction
// accumulated so far, nes the deferred disequalities, pending the
// formulas still to satisfy. It returns StatusSat as soon as a
// validated model is found.
func (s *searcher) search(atoms []LinAtom, nes []neAtom, pending []logic.Formula) Status {
	for len(pending) > 0 {
		f := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		switch f := f.(type) {
		case logic.Bool:
			if !f.V {
				return StatusUnsat
			}
		case logic.And:
			pending = append(pending, f.Fs...)
		case logic.Cmp:
			r := s.lin.cmp(f)
			if len(r.split) == 2 {
				nes = append(nes, neAtom{lt: r.split[0], gt: r.split[1]})
			} else {
				atoms = append(atoms, r.atoms...)
			}
		case logic.Or:
			return s.branchFormulas(atoms, nes, pending, f.Fs)
		case logic.Not:
			// NNF leaves Not only around atoms in pathological cases;
			// handle by folding.
			inner := logic.NNF(logic.MkNot(logic.MkNot(f)))
			if logic.Equal(inner, f) {
				// Cannot reduce further; treat as unknown branch.
				s.sawUnknown = true
				return StatusUnknown
			}
			pending = append(pending, inner)
		default:
			s.sawUnknown = true
			return StatusUnknown
		}
	}
	return s.leaf(atoms, nes)
}

func (s *searcher) branchFormulas(atoms []LinAtom, nes []neAtom, pending []logic.Formula, alts []logic.Formula) Status {
	mCaseSplits.Inc()
	sawUnknown := false
	for _, alt := range alts {
		branchPending := make([]logic.Formula, len(pending)+1)
		copy(branchPending, pending)
		branchPending[len(pending)] = alt
		branchAtoms := make([]LinAtom, len(atoms))
		copy(branchAtoms, atoms)
		branchNes := make([]neAtom, len(nes))
		copy(branchNes, nes)
		switch s.search(branchAtoms, branchNes, branchPending) {
		case StatusSat:
			return StatusSat
		case StatusUnknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return StatusUnknown
	}
	return StatusUnsat
}

// leaf decides the accumulated conjunction with the theory solver,
// lazily splitting on violated disequalities, and validates the model
// against the original formula when abstraction was involved.
func (s *searcher) leaf(atoms []LinAtom, nes []neAtom) Status {
	s.leaves++
	if s.cancelled() {
		return StatusUnknown
	}
	if s.leaves > s.lim.MaxLeaves {
		s.sawUnknown = true
		return StatusUnknown
	}
	st, numModel := checkConjCtx(s.ctx, atoms, s.lim.MaxBBDepth)
	if st == StatusSat {
		// Split on the first disequality the model violates, that is,
		// one where neither strict side holds.
		for i, ne := range nes {
			if linAtomHolds(ne.lt, numModel) || linAtomHolds(ne.gt, numModel) {
				continue
			}
			// Violated: the model makes both sides equal. Branch.
			rest := append(append([]neAtom{}, nes[:i]...), nes[i+1:]...)
			sawUnknown := false
			for _, side := range []LinAtom{ne.lt, ne.gt} {
				branch := make([]LinAtom, len(atoms), len(atoms)+1)
				branch = append(branch, side)
				copy(branch, atoms)
				switch s.leaf(branch, rest) {
				case StatusSat:
					return StatusSat
				case StatusUnknown:
					sawUnknown = true
				}
			}
			if sawUnknown {
				return StatusUnknown
			}
			return StatusUnsat
		}
	}
	if st != StatusSat {
		if st == StatusUnknown {
			s.sawUnknown = true
		}
		return st
	}
	model, ok := int64Model(numModel)
	if !ok {
		// A model value outside int64 cannot be reported or validated.
		s.sawUnknown = true
		return StatusUnknown
	}
	if !s.lin.used {
		s.model = projectModel(model)
		return StatusSat
	}
	// Abstraction was used: validate against the original formula. A
	// model that fails cannot be Sat, and the abstraction cannot prove
	// Unsat either.
	s.tried++
	if s.validate(model) {
		s.model = projectModel(model)
		return StatusSat
	}
	s.sawUnknown = true
	return StatusUnknown
}

// projectModel drops internal nonlinear-abstraction variables ("$u...")
// from the model; other $-variables (e.g. "$in..." nondet inputs) are
// part of the caller's vocabulary and kept.
func projectModel(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		if len(k) >= 2 && k[0] == '$' && k[1] == 'u' {
			continue
		}
		out[k] = v
	}
	return out
}

// validate checks the abstract model against the original formula,
// supplying 0 for variables the model does not mention.
func (s *searcher) validate(model map[string]int64) bool {
	env := make(map[string]int64)
	for _, v := range logic.Vars(s.orig) {
		env[v] = model[v]
	}
	ok, err := logic.Eval(s.orig, env)
	return err == nil && ok
}

// int64Model converts an integral model to int64 values; ok is false
// when some value is out of int64 range.
func int64Model(m map[string]num) (map[string]int64, bool) {
	out := make(map[string]int64, len(m))
	for name, v := range m {
		i, ok := v.int64()
		if !ok {
			return nil, false
		}
		out[name] = i
	}
	return out, true
}

// linAtomHolds evaluates a normalized atom under an integer model
// (missing variables default to 0).
func linAtomHolds(a LinAtom, model map[string]num) bool {
	sum := a.Expr.Const
	for _, t := range a.Expr.Terms {
		if mv, ok := model[t.Var]; ok {
			sum = sum.add(t.Coeff.mul(mv))
		}
	}
	if a.Kind == AtomEq {
		return sum.sign() == 0
	}
	return sum.sign() <= 0
}
