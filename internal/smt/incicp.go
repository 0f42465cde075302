package smt

// Incremental interval constraint propagation: the persistent,
// delta-driven counterpart of icpCheck (intervals.go) used by the
// incremental Solver. Bounds carry over from check to check — within a
// Push frame the assertion set only grows, so every tightening derived
// earlier stays valid and new atoms start from the already-narrowed
// state instead of from scratch. Propagation is worklist-based and
// seeded with the delta: a check that adds k atoms touches the atoms
// reachable from those k atoms' variables, not the whole conjunction.
//
// Like icpCheck this is a sound Unsat pre-filter only: its int64
// arithmetic saturates only where that widens a bound, so an empty
// interval here is empty under exact arithmetic too. Anything else
// falls through to the simplex. Both use the same atom form
// (icpSystem) and tighten rule.

// incICP is the persistent propagation state.
type incICP struct {
	icpSystem
	ids    map[string]int
	bounds []interval
	byVar  [][]int // var id -> indices of atoms mentioning it
}

func newIncICP() *incICP {
	return &incICP{ids: make(map[string]int)}
}

// add converts and registers a LinAtom and returns its index; ok is
// false when it does not fit the propagation form.
func (p *incICP) add(a LinAtom) (int, bool) {
	for _, t := range a.Expr.Terms {
		if _, ok := p.ids[t.Var]; !ok {
			p.ids[t.Var] = len(p.bounds)
			p.bounds = append(p.bounds, interval{lo: -icpInf, hi: icpInf})
			p.byVar = append(p.byVar, nil)
		}
	}
	if !p.icpSystem.add(a, p.ids) {
		return 0, false
	}
	idx := len(p.atoms) - 1
	for _, v := range p.vars[p.atoms[idx].start:] {
		p.byVar[v] = append(p.byVar[v], idx)
	}
	return idx, true
}

// truncate drops atoms from index n on and rebuilds the variable index
// (Pop path; bounds are restored separately from the frame snapshot).
func (p *incICP) truncate(n int) {
	if n >= len(p.atoms) {
		return
	}
	end := p.atoms[n].start
	p.atoms, p.vars, p.coeffs = p.atoms[:n], p.vars[:end], p.coeffs[:end]
	for v := range p.byVar {
		p.byVar[v] = p.byVar[v][:0]
	}
	for i, a := range p.atoms {
		for _, v := range p.vars[a.start:a.end] {
			p.byVar[v] = append(p.byVar[v], i)
		}
	}
}

// snapshotBounds copies the current bounds for a Push frame.
func (p *incICP) snapshotBounds() []interval {
	return append(make([]interval, 0, len(p.bounds)), p.bounds...)
}

// restoreBounds reinstates a snapshot. Variables interned after it
// was taken were unbounded then, so they are unbounded again.
func (p *incICP) restoreBounds(snap []interval) {
	n := len(p.bounds)
	p.bounds = append(p.bounds[:0], snap...)
	for len(p.bounds) < n {
		p.bounds = append(p.bounds, interval{lo: -icpInf, hi: icpInf})
	}
}

// propagate runs worklist propagation seeded with the given atom
// indices; it returns StatusUnsat when some interval empties and
// StatusUnknown otherwise. The work budget bounds total atom
// processings (sound: stopping early just means less tightening).
func (p *incICP) propagate(seed []int) Status {
	const budgetPerAtom = 8
	budget := budgetPerAtom * len(p.atoms)
	if budget < 64 {
		budget = 64
	}
	queue := append([]int(nil), seed...)
	queued := make([]bool, len(p.atoms))
	for _, i := range seed {
		queued[i] = true
	}
	var changed []int32
	for len(queue) > 0 && budget > 0 {
		i := queue[0]
		queue = queue[1:]
		queued[i] = false
		budget--
		var empty bool
		if changed, empty = p.tighten(i, p.bounds, changed[:0]); empty {
			return StatusUnsat
		}
		for _, v := range changed {
			for _, j := range p.byVar[v] {
				if !queued[j] {
					queued[j] = true
					queue = append(queue, j)
				}
			}
		}
	}
	return StatusUnknown
}
