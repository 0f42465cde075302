package smt

import (
	"context"

	"pathslice/internal/logic"
)

// maxCoreCandidates bounds the members UnsatCore minimizes; beyond it
// every candidate is returned unminimized.
const maxCoreCandidates = 256

// UnsatCore returns a deletion-minimized subset of the asserted
// formulas whose conjunction is still unsatisfiable. It must be called
// after Check has returned StatusUnsat; it returns nil otherwise. The
// indices into the assertion list are returned alongside the formulas,
// both in assertion order, so callers can map core members back to
// trace operations.
//
// Minimization is the deletion filter: in assertion order, member k is
// dropped if and only if the current core without k is unsat. It is
// skipped (returning every candidate) beyond maxCoreCandidates
// members. A trial is not solved whole: the candidates fall into
// variable-disjoint groups, a conjunction of variable-disjoint parts is
// unsat if and only if one part is, and coreFilter solves only the
// groups whose status the trial needs and does not know yet.
// Solver.Checks counts those group solves. Every drop rests on an Unsat
// answer for a subset of its trial, so the core stays unsatisfiable
// whatever a solve answers: an Unknown only keeps a member. Every
// group solve runs under ctx, and once ctx is done minimization stops
// and the current core is returned, only less minimal. Because
// assertions are interned, the test for trivially true members is a
// pointer comparison rather than a serialization.
func (s *Solver) UnsatCore(ctx context.Context) ([]logic.Formula, []int) {
	if !s.lastUns {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	idx := make([]int, 0, len(s.asserted))
	cands := make([]logic.Formula, 0, len(s.asserted))
	for i, f := range s.asserted {
		if _, isTrue := f.(logic.Bool); isTrue && logic.Equal(f, logic.True) {
			continue // trivially irrelevant
		}
		idx = append(idx, i)
		cands = append(cands, f)
	}
	if len(idx) <= maxCoreCandidates {
		filter := coreFilter{solve: func(fs []logic.Formula) Status {
			s.Checks++
			return SolveCtx(ctx, logic.MkAnd(fs...), s.lim).Status
		}}
		// kept is increasing, so compacting idx in place reads each
		// entry before it is overwritten.
		core := idx[:0]
		for _, k := range filter.run(ctx, cands) {
			core = append(core, idx[k])
		}
		idx = core
	}
	fs := make([]logic.Formula, len(idx))
	for k, i := range idx {
		fs[k] = s.asserted[i]
	}
	return fs, idx
}

// Group statuses of the core filter. A status describes the
// conjunction of the group's members still in the core; groupUnknown
// means it was not solved since they last changed, and groupUndecided
// that the solver answered Unknown.
const (
	groupUnknown int8 = iota
	groupSat
	groupUnsat
	groupUndecided
)

// coreFilter is UnsatCore's deletion filter, deciding each trial on the
// variable-disjoint groups of the candidates. solve decides a
// conjunction of candidates.
type coreFilter struct {
	solve func([]logic.Formula) Status
	// staleUnsat, set only by tests, plants a wrong rule they must
	// catch: a group keeps its unsat status after losing a member
	// because another group was unsat.
	staleUnsat bool
}

// run minimizes fs, whose conjunction is unsat, and returns the
// positions it keeps, in order. For member k of group g: if another
// group is known unsat, k goes with no solve. Otherwise each other
// group still unknown is solved, and if none of them is unsat, g
// without k. The statuses stay exact as members leave: a sat group
// stays sat, a group shown unsat without k stays unsat once k leaves,
// and a group that loses k because another group was unsat goes back
// to unknown. With no Unknown answer the drops are therefore exactly
// those of the plain filter, which solves each trial whole; an Unknown
// answer only keeps a member.
func (cf coreFilter) run(ctx context.Context, fs []logic.Formula) []int {
	group, members := coreGroups(fs)
	status := make([]int8, len(members))
	in := make([]bool, len(fs))
	for k := range in {
		in[k] = true
	}
	var buf []logic.Formula
	// decide solves group g's core members other than except.
	decide := func(g, except int) int8 {
		buf = buf[:0]
		for _, j := range members[g] {
			if in[j] && j != except {
				buf = append(buf, fs[j])
			}
		}
		if len(buf) == 0 {
			return groupSat
		}
		switch cf.solve(buf) {
		case StatusSat:
			return groupSat
		case StatusUnsat:
			return groupUnsat
		}
		return groupUndecided
	}
	for k := 0; k < len(fs) && ctx.Err() == nil; k++ {
		g := group[k]
		other := false // another group is unsat
		for h, st := range status {
			if h != g && st == groupUnsat {
				other = true
				break
			}
		}
		for h := 0; h < len(status) && !other; h++ {
			if h != g && status[h] == groupUnknown {
				status[h] = decide(h, -1)
				other = status[h] == groupUnsat
			}
		}
		switch {
		case other:
			in[k] = false
			if status[g] != groupSat && !(cf.staleUnsat && status[g] == groupUnsat) {
				status[g] = groupUnknown
			}
		case decide(g, k) == groupUnsat:
			in[k] = false
			status[g] = groupUnsat
		}
	}
	kept := make([]int, 0, len(fs))
	for k, ok := range in {
		if ok {
			kept = append(kept, k)
		}
	}
	return kept
}

// coreGroups partitions fs into variable-disjoint groups by a
// union-find over their variables; a variable-free member is a group of
// its own. group[k] is member k's group, and members[g] lists group g's
// members in order; groups are numbered by their first member.
func coreGroups(fs []logic.Formula) (group []int, members [][]int) {
	up := make([]int, len(fs))
	for k := range up {
		up[k] = k
	}
	find := func(k int) int {
		for up[k] != k {
			up[k] = up[up[k]]
			k = up[k]
		}
		return k
	}
	owner := make(map[string]int) // variable → first member naming it
	for k, f := range fs {
		for _, v := range logic.Vars(f) {
			if o, ok := owner[v]; ok {
				up[find(k)] = find(o)
			} else {
				owner[v] = k
			}
		}
	}
	group = make([]int, len(fs))
	id := make([]int, len(fs))
	for k := range id {
		id[k] = -1
	}
	for k := range fs {
		r := find(k)
		if id[r] < 0 {
			id[r] = len(members)
			members = append(members, nil)
		}
		group[k] = id[r]
		members[id[r]] = append(members[id[r]], k)
	}
	return group, members
}
