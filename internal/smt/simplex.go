package smt

import (
	"cmp"
	"context"
	"math/big"
	"slices"
)

// Status is a solver verdict.
type Status int

// The three verdicts.
const (
	StatusSat Status = iota
	StatusUnsat
	StatusUnknown
)

// String renders the verdict.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	case StatusUnknown:
		return "unknown"
	}
	return "?"
}

// maxPivots bounds the pivots of one tableau's checks.
const maxPivots = 200000

// simplex is a Dutertre–de Moura style general simplex over exact
// rationals: every constraint is a slack variable defined by a linear
// row and constrained by bounds; the tableau is pivoted until all
// basic variables respect their bounds or a conflict is found.
//
// Variables are dense ids into one slice. Values and bounds are nums,
// and each basic variable's row is a slice of (column, coefficient)
// entries sorted by column, so both halves of Bland's rule — the
// smallest violating basic variable, the smallest eligible nonbasic —
// are forward scans that stop at the first hit.
type simplex struct {
	vars  []svar
	index map[string]int // name -> var id

	pivots int // pivots so far; check stops at maxPivots

	// Trail-based backtracking for the incremental solver's
	// branch-and-bound and disequality splits: when recording, every
	// bound assignment is logged so popTo can undo it.
	// Bounds are the only state that needs undoing — rows and pivots
	// are semantically invariant reformulations of the same linear
	// relations, and variable values are just the current assignment,
	// which the next check re-repairs. A constraint "removed" by popTo
	// keeps its (now unbounded, hence inert) slack row: physically
	// deleting rows is unsound once pivoting has mixed their variables
	// into retained rows.
	recording bool
	trail     []boundChange

	arena   []entry // unused tail of the block new rows are cut from
	scratch []entry // merge buffer for pivot substitutions
}

// svar is one tableau variable: a slack, or a named variable of index.
type svar struct {
	lower, upper bound
	val          num
	basic        bool
	row          []entry // when basic: val = Σ c·val[col]
}

// bound is one side of a variable's interval; ok is false when that
// side is unbounded.
type bound struct {
	v  num
	ok bool
}

// entry is one nonzero coefficient of a row.
type entry struct {
	col int
	c   num
}

// boundChange is one undo record: variable x's lower (side 0) or upper
// (side 1) bound before it was overwritten.
type boundChange struct {
	x    int
	side int8
	old  bound
}

// mark returns the current trail position for a later popTo.
func (s *simplex) mark() int { return len(s.trail) }

// popTo undoes every bound change recorded after mark, most recent
// first, restoring the bounds exactly as they were.
func (s *simplex) popTo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		c := s.trail[i]
		if c.side == 0 {
			s.vars[c.x].lower = c.old
		} else {
			s.vars[c.x].upper = c.old
		}
	}
	s.trail = s.trail[:mark]
}

// newSimplex returns an empty tableau that grows one variable at a
// time (the incremental solver's).
func newSimplex() *simplex {
	return &simplex{index: make(map[string]int)}
}

// leafVars are the variables of a conjunction, interned once per leaf
// in tableau id order: each atom's slack, then the atom's names not
// seen before, in sorted order — the ids addConstraint would hand out
// one at a time. Every branch-and-bound tableau of the leaf shares
// them.
type leafVars struct {
	index    map[string]int
	nvars    int // slacks included
	nentries int // row entries: Σ terms over the atoms
}

func internLeaf(atoms []LinAtom) leafVars {
	lv := leafVars{index: make(map[string]int)}
	for _, a := range atoms {
		lv.nvars++ // the atom's slack
		for _, t := range a.Expr.Terms {
			if _, ok := lv.index[t.Var]; !ok {
				lv.index[t.Var] = lv.nvars
				lv.nvars++
			}
		}
		lv.nentries += len(a.Expr.Terms)
	}
	return lv
}

// newSimplexFor returns a tableau holding one slack row per atom, each
// slice sized once from lv. The tableau reads lv.index and never
// writes it: every name it is asked about is interned there.
func newSimplexFor(atoms []LinAtom, lv leafVars) *simplex {
	sx := &simplex{
		vars:  make([]svar, 0, lv.nvars),
		index: lv.index,
		arena: make([]entry, 0, lv.nentries),
	}
	for _, a := range atoms {
		addAtomRow(sx, a)
	}
	return sx
}

func (s *simplex) varOf(name string) int {
	id, ok := s.index[name]
	if !ok {
		id = len(s.vars)
		s.index[name] = id
	}
	if id == len(s.vars) {
		// First use of a new name, or of one newSimplexFor interned
		// ahead at exactly this id.
		s.newVar()
	}
	return id
}

func (s *simplex) newVar() int {
	s.vars = append(s.vars, svar{})
	return len(s.vars) - 1
}

// addAtomRow adds one normalized atom as a bounded slack row.
func addAtomRow(sx *simplex, a LinAtom) {
	rhs := bound{v: a.Expr.Const.neg(), ok: true}
	switch a.Kind {
	case AtomLe:
		sx.addConstraint(a.Expr.Terms, bound{}, rhs)
	case AtomEq:
		sx.addConstraint(a.Expr.Terms, rhs, rhs)
	}
}

// addConstraint introduces a slack variable s = Σ coeff·var with the
// given bounds and returns its id.
func (s *simplex) addConstraint(terms []LinTerm, lo, hi bound) int {
	slack := s.newVar()
	// The terms arrive sorted by name: varOf interns ids in first-seen
	// order and Bland's rule pivots on the smallest id, so this order
	// decides the pivot sequence — and with it whether a borderline
	// instance exhausts maxPivots (Unknown) or finishes. It keeps
	// solver statuses reproducible across runs.
	row := s.cut(len(terms))
	substitute := false
	for i, t := range terms {
		x := s.varOf(t.Var)
		row[i] = entry{col: x, c: t.Coeff}
		substitute = substitute || s.vars[x].basic
	}
	var v num
	for _, e := range row {
		v = v.add(e.c.mul(s.vars[e.col].val))
	}
	if substitute {
		// Substitute each basic variable's row.
		var sub []entry
		for _, e := range row {
			if xv := &s.vars[e.col]; xv.basic {
				for _, f := range xv.row {
					sub = rowAdd(sub, f.col, e.c.mul(f.c))
				}
			} else {
				sub = rowAdd(sub, e.col, e.c)
			}
		}
		row = sub
	} else {
		slices.SortFunc(row, func(a, b entry) int { return cmp.Compare(a.col, b.col) })
	}
	sv := &s.vars[slack]
	sv.row, sv.basic, sv.val = row, true, v
	if s.recording {
		if lo.ok {
			s.trail = append(s.trail, boundChange{x: slack, side: 0})
		}
		if hi.ok {
			s.trail = append(s.trail, boundChange{x: slack, side: 1})
		}
	}
	sv.lower, sv.upper = lo, hi
	return slack
}

// cut returns a fresh row of n entries from the arena, with capacity n
// so that growing it never reaches a neighbour.
func (s *simplex) cut(n int) []entry {
	if cap(s.arena)-len(s.arena) < n {
		s.arena = make([]entry, 0, max(n, 64))
	}
	start := len(s.arena)
	s.arena = s.arena[:start+n]
	return s.arena[start : start+n : start+n]
}

// rowAdd adds c to the coefficient of column x, keeping the row sorted
// and free of zeros.
func rowAdd(row []entry, x int, c num) []entry {
	i, found := slices.BinarySearchFunc(row, x, cmpCol)
	if found {
		if sum := row[i].c.add(c); sum.sign() != 0 {
			row[i].c = sum
		} else {
			row = slices.Delete(row, i, i+1)
		}
		return row
	}
	if c.sign() == 0 {
		return row
	}
	return slices.Insert(row, i, entry{col: x, c: c})
}

func cmpCol(e entry, x int) int { return cmp.Compare(e.col, x) }

// coef returns the coefficient of column x in row.
func coef(row []entry, x int) (num, bool) {
	if i, found := slices.BinarySearchFunc(row, x, cmpCol); found {
		return row[i].c, true
	}
	return num{}, false
}

// setBounds tightens the bounds of a named variable; it reports false
// on an immediately empty interval.
func (s *simplex) setBounds(name string, lo, hi bound) bool {
	x := s.varOf(name)
	v := &s.vars[x]
	if lo.ok && (!v.lower.ok || lo.v.cmp(v.lower.v) > 0) {
		if s.recording {
			s.trail = append(s.trail, boundChange{x: x, side: 0, old: v.lower})
		}
		v.lower = lo
	}
	if hi.ok && (!v.upper.ok || hi.v.cmp(v.upper.v) < 0) {
		if s.recording {
			s.trail = append(s.trail, boundChange{x: x, side: 1, old: v.upper})
		}
		v.upper = hi
	}
	if v.lower.ok && v.upper.ok && v.lower.v.cmp(v.upper.v) > 0 {
		return false
	}
	if !v.basic {
		// Clamp the nonbasic value into its bounds.
		if v.lower.ok && v.val.cmp(v.lower.v) < 0 {
			s.update(x, v.lower.v)
		} else if v.upper.ok && v.val.cmp(v.upper.v) > 0 {
			s.update(x, v.upper.v)
		}
	}
	return true
}

// update sets nonbasic variable x to v, adjusting all basic values.
func (s *simplex) update(x int, v num) {
	delta := v.sub(s.vars[x].val)
	for b := range s.vars {
		sb := &s.vars[b]
		if !sb.basic {
			continue
		}
		if c, ok := coef(sb.row, x); ok {
			sb.val = sb.val.add(c.mul(delta))
		}
	}
	s.vars[x].val = v
}

// pivotAndUpdate makes basic b take value v by adjusting nonbasic x,
// then swaps their roles.
func (s *simplex) pivotAndUpdate(b, x int, v num) {
	a, _ := coef(s.vars[b].row, x)
	theta := v.sub(s.vars[b].val).quo(a)
	s.vars[b].val = v
	s.vars[x].val = s.vars[x].val.add(theta)
	for b2 := range s.vars {
		sb := &s.vars[b2]
		if !sb.basic || b2 == b {
			continue
		}
		if c, ok := coef(sb.row, x); ok {
			sb.val = sb.val.add(c.mul(theta))
		}
	}
	s.pivot(b, x)
}

// pivot swaps basic b with nonbasic x.
func (s *simplex) pivot(b, x int) {
	// x = (1/a)·b - Σ_{y≠x} (c_y/a)·y, built in b's row slice: x's entry
	// leaves and b's enters, so the length is unchanged.
	row := s.vars[b].row
	i, _ := slices.BinarySearchFunc(row, x, cmpCol)
	inv := numInt(1).quo(row[i].c)
	row = slices.Delete(row, i, i+1)
	for k := range row {
		row[k].c = row[k].c.mul(inv).neg()
	}
	j, _ := slices.BinarySearchFunc(row, b, cmpCol)
	row = slices.Insert(row, j, entry{col: b, c: inv})
	s.vars[b].row, s.vars[b].basic = nil, false
	s.vars[x].row, s.vars[x].basic = row, true
	// Substitute x in every other row.
	for b2 := range s.vars {
		sb := &s.vars[b2]
		if !sb.basic || b2 == x {
			continue
		}
		if c, ok := coef(sb.row, x); ok {
			sb.row = s.substitute(sb.row, x, c, row)
		}
	}
}

// substitute returns row with its column x (coefficient c) replaced by
// c·def, where def is x's defining row; row's storage is reused.
func (s *simplex) substitute(row []entry, x int, c num, def []entry) []entry {
	out := s.scratch[:0]
	i, j := 0, 0
	for i < len(row) || j < len(def) {
		switch {
		case j == len(def) || (i < len(row) && row[i].col < def[j].col):
			if row[i].col != x {
				out = append(out, row[i])
			}
			i++
		case i == len(row) || def[j].col < row[i].col:
			out = append(out, entry{col: def[j].col, c: c.mul(def[j].c)})
			j++
		default:
			if sum := row[i].c.add(c.mul(def[j].c)); sum.sign() != 0 {
				out = append(out, entry{col: row[i].col, c: sum})
			}
			i++
			j++
		}
	}
	s.scratch = out
	return append(row[:0], out...)
}

// check runs the simplex main loop with Bland's rule; it returns
// StatusSat, StatusUnsat, or StatusUnknown on pivot exhaustion.
func (s *simplex) check() Status {
	return s.checkCtx(nil, maxPivots-s.pivots)
}

// checkCtx is check with a per-call pivot budget and cooperative
// cancellation: the incremental solver re-pivots a retained tableau
// many times per session, so exhaustion must be charged per warm start
// rather than cumulatively, and a deadlined caller must get its
// Unknown back without waiting for budget exhaustion. ctx is polled
// every 32 pivots (each pivot is a full-tableau substitution, so the
// poll amortizes to noise).
func (s *simplex) checkCtx(ctx context.Context, budget int) Status {
	pivots := 0
	for {
		pivots++
		s.pivots++
		mSimplexPivots.Inc()
		if pivots > budget {
			return StatusUnknown
		}
		if ctx != nil && pivots&31 == 0 && ctx.Err() != nil {
			return StatusUnknown
		}
		// Bland's rule: the smallest violating basic variable.
		b := -1
		below := false
		for id := range s.vars {
			v := &s.vars[id]
			if !v.basic {
				continue
			}
			if v.lower.ok && v.val.cmp(v.lower.v) < 0 {
				b, below = id, true
				break
			}
			if v.upper.ok && v.val.cmp(v.upper.v) > 0 {
				b, below = id, false
				break
			}
		}
		if b < 0 {
			return StatusSat
		}
		// The smallest eligible nonbasic in b's row.
		x := -1
		for _, e := range s.vars[b].row {
			// Below its lower bound b must increase: raise y when c>0,
			// lower it when c<0; above its upper bound, the reverse.
			y := &s.vars[e.col]
			if (e.c.sign() > 0) == below {
				if !y.upper.ok || y.val.cmp(y.upper.v) < 0 {
					x = e.col
					break
				}
			} else if !y.lower.ok || y.val.cmp(y.lower.v) > 0 {
				x = e.col
				break
			}
		}
		if x < 0 {
			return StatusUnsat
		}
		if below {
			s.pivotAndUpdate(b, x, s.vars[b].lower.v)
		} else {
			s.pivotAndUpdate(b, x, s.vars[b].upper.v)
		}
	}
}

// fractional returns the smallest-named variable whose value is not an
// integer; ok is false when every named value is integral.
func (s *simplex) fractional() (name string, v num, ok bool) {
	for n, id := range s.index {
		if val := s.vars[id].val; !val.isInt() && (!ok || n < name) {
			name, v, ok = n, val, true
		}
	}
	return name, v, ok
}

// model returns the values of the named variables.
func (s *simplex) model() map[string]num {
	m := make(map[string]num, len(s.index))
	for name, id := range s.index {
		m[name] = s.vars[id].val
	}
	return m
}

// ---------------------------------------------------------------------------
// Conjunction-level decision with integrality (branch and bound)

// extraBound is a branch-and-bound bound added on one variable.
type extraBound struct {
	name   string
	lo, hi bound
}

// checkConjCtx decides a conjunction of linear atoms over the integers.
// On StatusSat the returned model assigns integer values to every
// named variable of the atoms. The branch-and-bound tree polls ctx at
// every node and degrades to StatusUnknown once it is cancelled, so a
// single deep integrality search cannot outlive the caller's deadline.
func checkConjCtx(ctx context.Context, atoms []LinAtom, maxDepth int) (Status, map[string]num) {
	// Quick GCD test for equalities: Σ cᵢxᵢ = k with gcd(cᵢ) ∤ k is
	// integer-infeasible even when rationally feasible.
	for _, a := range atoms {
		if gcdInfeasible(a) {
			return StatusUnsat, nil
		}
	}
	return branchAndBound(ctx, atoms, internLeaf(atoms), nil, maxDepth)
}

func branchAndBound(ctx context.Context, atoms []LinAtom, lv leafVars, extra []extraBound, depth int) (Status, map[string]num) {
	if ctx != nil && ctx.Err() != nil {
		return StatusUnknown, nil
	}
	sx := newSimplexFor(atoms, lv)
	for _, eb := range extra {
		if !sx.setBounds(eb.name, eb.lo, eb.hi) {
			return StatusUnsat, nil
		}
	}
	switch sx.check() {
	case StatusUnsat:
		return StatusUnsat, nil
	case StatusUnknown:
		return StatusUnknown, nil
	}
	// Rational model; branch on the smallest-named fractional variable.
	fracVar, fracVal, ok := sx.fractional()
	if !ok {
		return StatusSat, sx.model()
	}
	if depth <= 0 {
		return StatusUnknown, nil
	}
	// Branch: x ≤ floor(v) or x ≥ floor(v)+1.
	floor := fracVal.floor()
	lo := bound{v: floor.add(numInt(1)), ok: true}
	hi := bound{v: floor, ok: true}
	st, m := branchAndBound(ctx, atoms, lv, append(append([]extraBound{}, extra...),
		extraBound{name: fracVar, hi: hi}), depth-1)
	if st == StatusSat {
		return st, m
	}
	st2, m2 := branchAndBound(ctx, atoms, lv, append(append([]extraBound{}, extra...),
		extraBound{name: fracVar, lo: lo}), depth-1)
	if st2 == StatusSat {
		return st2, m2
	}
	if st == StatusUnsat && st2 == StatusUnsat {
		return StatusUnsat, nil
	}
	return StatusUnknown, nil
}

// gcdInfeasible reports whether a single atom is integer-infeasible by
// itself: a contradictory constant atom, or an equality Σ cᵢxᵢ = k
// with gcd(cᵢ) ∤ k.
func gcdInfeasible(a LinAtom) bool {
	e := a.Expr
	if len(e.Terms) == 0 {
		if a.Kind == AtomEq {
			return e.Const.sign() != 0
		}
		return e.Const.sign() > 0
	}
	if a.Kind != AtomEq {
		return false
	}
	word := e.Const.b == nil
	var g int64
	for _, t := range e.Terms {
		if t.Coeff.b != nil {
			word = false
			break
		}
		g = gcd64(g, int64(uabs(t.Coeff.n)))
	}
	if word {
		return e.Const.n%g != 0
	}
	gb := new(big.Int)
	for _, t := range e.Terms {
		gb.GCD(nil, nil, gb, new(big.Int).Abs(t.Coeff.rat().Num()))
	}
	return new(big.Int).Rem(e.Const.rat().Num(), gb).Sign() != 0
}
