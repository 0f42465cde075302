package smt

// Interval constraint propagation: a cheap, sound UNSAT pre-filter run
// before the simplex. For a conjunction of normalized linear atoms it
// maintains integer bounds per variable and tightens them until a
// fixpoint, an empty interval (definitely UNSAT), or a round limit.
//
// Arithmetic uses int64 with saturation at ±icpInf. Atoms whose
// constant or coefficients exceed icpInf are left to the simplex, and a
// sum is only clamped in the direction that widens the bound derived
// from it, so an empty interval detected here is empty under exact
// arithmetic too — the filter never reports a false UNSAT.

const icpInf = int64(1) << 56

type interval struct {
	lo, hi int64 // [-icpInf, icpInf] encode unbounded sides
}

// satAdd adds with saturation.
func satAdd(a, b int64) int64 {
	s := a + b
	switch {
	case a > 0 && b > 0 && s < 0, s > icpInf:
		return icpInf
	case a < 0 && b < 0 && s > 0, s < -icpInf:
		return -icpInf
	}
	return s
}

// satMul multiplies with saturation.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	s := a * b
	if s/b != a || s > icpInf || s < -icpInf {
		if (a > 0) == (b > 0) {
			return icpInf
		}
		return -icpInf
	}
	return s
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// icpSystem holds atoms in propagation form: dense variable ids and
// int64 coefficients, each in one backing slice. icpCheck and the
// incremental incICP share this form and its tighten rule.
type icpSystem struct {
	atoms  []icpAtom
	vars   []int32
	coeffs []int64
}

// icpAtom is Σ coeffs[i]·x_vars[i] + k (≤ 0, or = 0) over the system's
// backing slices from start to end, in the expression's sorted-name
// order. Propagation tightens bounds in place, so with a bounded round
// count the visit order decides the state reached at cutoff; the
// sorted order keeps solver statuses reproducible across runs.
type icpAtom struct {
	kind       AtomKind
	k          int64
	start, end int
}

// add appends a, with ids[name] as each variable's id; it reports
// false, adding nothing, when the constant or a coefficient lies
// outside [-icpInf, icpInf] (the simplex decides such atoms exactly).
func (sys *icpSystem) add(a LinAtom, ids map[string]int) bool {
	k, ok := icpInt(a.Expr.Const)
	if !ok {
		return false
	}
	start := len(sys.vars)
	for _, t := range a.Expr.Terms {
		c, ok := icpInt(t.Coeff)
		if !ok {
			sys.vars, sys.coeffs = sys.vars[:start], sys.coeffs[:start]
			return false
		}
		sys.vars = append(sys.vars, int32(ids[t.Var]))
		sys.coeffs = append(sys.coeffs, c)
	}
	sys.atoms = append(sys.atoms, icpAtom{kind: a.Kind, k: k, start: start, end: len(sys.vars)})
	return true
}

// icpInt returns x when it is an integer in [-icpInf, icpInf], where
// negation and the saturating helpers cannot overflow.
func icpInt(x num) (int64, bool) {
	v, ok := x.int64()
	return v, ok && v >= -icpInf && v <= icpInf
}

// icpCheck propagates bounds over the atoms, whose variables lv
// interns; it returns StatusUnsat when some interval empties, and
// StatusUnknown otherwise (the conjunction may still be unsatisfiable
// — the simplex decides).
func icpCheck(atoms []LinAtom, lv leafVars, maxRounds int) Status {
	if maxRounds <= 0 {
		maxRounds = 30
	}
	sys := icpSystem{
		atoms:  make([]icpAtom, 0, len(atoms)),
		vars:   make([]int32, 0, lv.nentries),
		coeffs: make([]int64, 0, lv.nentries),
	}
	for _, a := range atoms {
		sys.add(a, lv.index)
	}
	bounds := make([]interval, lv.nvars)
	for i := range bounds {
		bounds[i] = interval{lo: -icpInf, hi: icpInf}
	}
	var changed []int32
	for round := 0; round < maxRounds; round++ {
		moved := false
		for i := range sys.atoms {
			var empty bool
			changed, empty = sys.tighten(i, bounds, changed[:0])
			if empty {
				return StatusUnsat
			}
			moved = moved || len(changed) > 0
		}
		if !moved {
			break
		}
	}
	return StatusUnknown
}

// tighten applies one propagation step of atom i to bounds: for
// Σ cᵢxᵢ + k ≤ 0 each xⱼ gets cⱼxⱼ ≤ -k - Σ_{i≠j} min(cᵢxᵢ), and for
// equalities additionally the symmetric ≥ rule. It appends the ids of
// tightened variables to changed and reports whether an interval
// emptied.
func (sys *icpSystem) tighten(i int, bounds []interval, changed []int32) ([]int32, bool) {
	a := sys.atoms[i]
	vars, coeffs := sys.vars[a.start:a.end], sys.coeffs[a.start:a.end]
	for jx, j := range vars {
		cj := coeffs[jx]
		ivj := bounds[j]
		dirty := false
		// Upper side (≤): uses minima of the other terms.
		if rest, ok := icpRest(a.k, vars, coeffs, bounds, jx, false); ok {
			// cj*xj ≤ -rest
			rhs := -rest
			if cj > 0 {
				if nb := floorDiv(rhs, cj); nb < ivj.hi {
					ivj.hi = nb
					dirty = true
				}
			} else if lo := ceilDivNeg(rhs, cj); lo > ivj.lo {
				// cj*xj ≤ rhs with cj < 0 ⇔ xj ≥ ⌈rhs/cj⌉.
				ivj.lo = lo
				dirty = true
			}
		}
		if a.kind == AtomEq {
			// Also Σ cᵢxᵢ + k ≥ 0: cⱼxⱼ ≥ -k - Σ_{i≠j} max(cᵢxᵢ).
			if rest, ok := icpRest(a.k, vars, coeffs, bounds, jx, true); ok {
				rhs := -rest // cj*xj ≥ rhs
				if cj > 0 {
					if lo := ceilDiv(rhs, cj); lo > ivj.lo {
						ivj.lo = lo
						dirty = true
					}
				} else if hi := floorDivNeg(rhs, cj); hi < ivj.hi {
					// cj*xj ≥ rhs with cj < 0 ⇔ xj ≤ ⌊rhs/cj⌋.
					ivj.hi = hi
					dirty = true
				}
			}
		}
		if dirty {
			bounds[j] = ivj
			changed = append(changed, j)
		}
		if ivj.lo > ivj.hi {
			return changed, true
		}
	}
	return changed, false
}

// icpRest returns k + Σ_{i≠skip} of each other term's minimum (or, with
// maxima, maximum) over the current bounds; ok is false when some term
// is unbounded on that side. The caller's bound stays sound when a sum
// of minima is under-estimated and a sum of maxima over-estimated, so
// saturation may clamp minima down at icpInf and maxima up at -icpInf;
// where a product or partial sum would need the other clamp, ok is
// false.
func icpRest(k int64, vars []int32, coeffs []int64, bounds []interval, skip int, maxima bool) (int64, bool) {
	sum := k
	for ix, i := range vars {
		if ix == skip {
			continue
		}
		ci := coeffs[ix]
		iv := bounds[i]
		// The minimum of cᵢxᵢ sits at lo when cᵢ > 0 and at hi when
		// cᵢ < 0; the maximum at the other end.
		var end int64
		if (ci > 0) == maxima {
			if iv.hi >= icpInf {
				return 0, false
			}
			end = iv.hi
		} else {
			if iv.lo <= -icpInf {
				return 0, false
			}
			end = iv.lo
		}
		p := satMul(ci, end)
		sum = satAdd(sum, p)
		if maxima && (p >= icpInf || sum >= icpInf) || !maxima && (p <= -icpInf || sum <= -icpInf) {
			return 0, false
		}
	}
	return sum, true
}

// ceilDivNeg returns the smallest integer x with c*x ≤ rhs for c < 0,
// i.e. x ≥ rhs/c: ⌈rhs/c⌉ with c negative.
func ceilDivNeg(rhs, c int64) int64 {
	// rhs/c with c<0: x ≥ rhs/c  ⇔  x ≥ -rhs/(-c) rounded up.
	return ceilDiv(-rhs, -c)
}

// floorDivNeg returns the largest integer x with c*x ≥ rhs for c < 0,
// i.e. x ≤ rhs/c: ⌊rhs/c⌋ with c negative.
func floorDivNeg(rhs, c int64) int64 {
	return floorDiv(-rhs, -c)
}
