// Judging concurrent slices: the extended oracle pillars for
// multi-threaded traces (see conc.go for the generator side).
package oracle

import (
	"context"
	"fmt"

	"pathslice/internal/cfa"
	"pathslice/internal/core"
	"pathslice/internal/interp"
	"pathslice/internal/smt"
)

// ConcReport is the outcome of judging one concurrent pair.
type ConcReport struct {
	Res          *core.ConcResult
	SliceStatus  smt.Status
	FullStatus   smt.Status
	Reorderings  int // legal linearizations replayed beyond the recorded one
	Violations   []Violation
	Inconclusive []string
}

func (r *ConcReport) violate(kind, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

func (r *ConcReport) undecided(format string, args ...any) {
	r.Inconclusive = append(r.Inconclusive, fmt.Sprintf(format, args...))
}

// maxLinearizations caps the interleaving-closure enumeration; a trace
// whose slice admits more legal reorderings is checked up to the cap
// and the remainder is counted as inconclusive coverage, never skipped
// silently.
const maxLinearizations = 160

// CheckConcTrace judges one concurrent program/trace pair: slice under
// sopts, then check the extended Theorem-1 contract. The reference
// slicer used for racy-edge recomputation and solver cross-checks is
// always built with sound defaults, so a planted-unsound slicer under
// test cannot corrupt its own judge.
func CheckConcTrace(prog *cfa.Program, tr cfa.ConcTrace, sopts core.Options, copts CheckOptions) *ConcReport {
	copts = copts.withDefaults()
	rep := &ConcReport{}
	mPairs.Inc()
	defer func() {
		mViolations.Add(int64(len(rep.Violations)))
		mInconclusive.Add(int64(len(rep.Inconclusive)))
	}()

	sut := core.NewWithOptions(prog, sopts)
	ref := core.New(prog)

	res, err := sut.ConcSlice(tr)
	if err != nil {
		rep.violate("slicer-error", "ConcSlice failed on a valid trace: %v", err)
		return rep
	}
	rep.Res = res

	// Structural: the slice is a per-thread subsequence of the input in
	// the original total order, Taken agrees with it, and every thread
	// operation survives (spawn/join are always kept — a slice missing
	// one would not even describe a runnable thread structure).
	taken := 0
	for _, t := range res.Taken {
		if t {
			taken++
		}
	}
	if taken != len(res.Slice) {
		rep.violate("structural", "Taken marks %d events but the slice has %d", taken, len(res.Slice))
		return rep
	}
	for t := 0; t < tr.NumThreads(); t++ {
		if !tr.ThreadPath(t).Subsequence(res.Slice.ThreadPath(t)) {
			rep.violate("structural", "thread %d slice is not a subsequence of its projection", t)
			return rep
		}
	}
	for i, ev := range tr {
		if k := ev.Edge.Op.Kind; (k == cfa.OpSpawn || k == cfa.OpJoin) && !res.Taken[i] {
			rep.violate("structural", "thread operation %s at event %d dropped from the slice", ev.Edge.Op, i)
		}
	}

	// Feasibility of the slice and the full trace under the recorded
	// interleaving, through the stateless reference encoder.
	rs, encS := ref.CheckConcFeasibility(context.Background(), res.Slice)
	rf, encF := ref.CheckConcFeasibility(context.Background(), tr)
	rep.SliceStatus, rep.FullStatus = rs.Status, rf.Status

	// Soundness: slice infeasible ⇒ original infeasible. A Sat full
	// trace is convicted by concrete replay of its model, so the
	// verdict rests on the interpreter, not on either encoder.
	if rs.Status == smt.StatusUnsat && rf.Status == smt.StatusSat {
		ok, rerr := replayConcModel(prog, ref, tr.Ops(), rf.Model, encF.NondetInputs())
		switch {
		case ok:
			rep.violate("soundness",
				"slice Unsat but the original interleaving replays concretely from the solver model")
		case rerr != nil:
			rep.undecided("soundness witness model did not replay (%v)", rerr)
		default:
			rep.violate("model-replay", "full-trace Sat model does not execute the interleaving")
		}
	}
	if rs.Status == smt.StatusUnknown || rf.Status == smt.StatusUnknown {
		rep.undecided("solver Unknown (slice=%v full=%v)", rs.Status, rf.Status)
	}

	// A Sat slice must be witnessed under the recorded interleaving,
	// and then under every legal reordering of it: linearizations that
	// respect per-thread program order, conflicting-access order, and
	// spawn/join synchronization are semantically equivalent, so each
	// must replay to the target from the same model.
	if rs.Status == smt.StatusSat {
		ok, rerr := replayConcModel(prog, ref, res.Slice.Ops(), rs.Model, encS.NondetInputs())
		switch {
		case rerr != nil:
			rep.undecided("slice model replay undecided: %v", rerr)
		case !ok:
			rep.violate("model-replay", "slice Sat model does not execute the slice under the recorded interleaving")
		default:
			checkReorderings(rep, prog, ref, res.Slice, rs.Model, encS.NondetInputs())
		}
	}
	return rep
}

// replayConcModel replays a total-order operation sequence from a
// solver model's initial state and nondet feed.
func replayConcModel(prog *cfa.Program, ref *core.Slicer, ops []cfa.Op, model map[string]int64, nondets []string) (bool, error) {
	init := decodeInit(ref, prog, model)
	st := interp.NewState(prog, ref.Addrs)
	for name, v := range init {
		st.Set(name, v)
	}
	vals := make([]int64, len(nondets))
	for i, name := range nondets {
		vals[i] = model[name]
	}
	return st.ExecTrace(ops, &interp.SliceInputs{Vals: vals})
}

// checkReorderings enumerates the legal linearizations of the slice
// and replays each from the model. The constraint graph is recomputed
// by the reference slicer — per-thread order plus conflicting-access
// and sync racy edges — so a slicer under test that dropped an edge
// cannot hide the resulting non-equivalent reordering.
//
// Nondet alignment: generated programs draw nondet() only on thread 0,
// whose events keep their relative order in every linearization, so
// the model's nondet value sequence feeds identically.
func checkReorderings(rep *ConcReport, prog *cfa.Program, ref *core.Slicer, slice cfa.ConcTrace, model map[string]int64, nondets []string) {
	n := len(slice)
	if n == 0 {
		return
	}
	// succ[i] lists events that must come after i; indeg counts.
	succ := make([][]int, n)
	indeg := make([]int, n)
	addEdge := func(a, b int) {
		succ[a] = append(succ[a], b)
		indeg[b]++
	}
	last := map[int]int{} // thread -> last event index seen
	for i, ev := range slice {
		if j, ok := last[ev.TID]; ok {
			addEdge(j, i)
		}
		last[ev.TID] = i
	}
	for _, re := range ref.RacyEdges(slice) {
		addEdge(re.From, re.To)
	}

	order := make([]int, 0, n)
	count := 0
	truncated := false
	var rec func() bool // returns false to abort (violation or cap)
	rec = func() bool {
		if count >= maxLinearizations {
			truncated = true
			return false
		}
		if len(order) == n {
			count++
			ops := make([]cfa.Op, n)
			identity := true
			for k, idx := range order {
				ops[k] = slice[idx].Edge.Op
				if idx != k {
					identity = false
				}
			}
			if identity {
				return true // the recorded order was already replayed
			}
			rep.Reorderings++
			ok, err := replayConcModel(prog, ref, ops, model, nondets)
			if err != nil {
				rep.undecided("reordering replay undecided: %v", err)
				return true
			}
			if !ok {
				rep.violate("reorder",
					"a legal reordering of the slice (per-thread order and all racy edges preserved) fails to replay: %v", order)
				return false
			}
			return true
		}
		for i := 0; i < n; i++ {
			if indeg[i] != 0 {
				continue
			}
			indeg[i] = -1
			order = append(order, i)
			for _, j := range succ[i] {
				indeg[j]--
			}
			cont := rec()
			for _, j := range succ[i] {
				indeg[j]++
			}
			order = order[:len(order)-1]
			indeg[i] = 0
			if !cont {
				return false
			}
		}
		return true
	}
	rec()
	if truncated {
		rep.undecided("reordering enumeration truncated at %d linearizations", maxLinearizations)
	}
}

// ---------------------------------------------------------------------------
// The commute metamorphic invariant

// CommutablePairs returns the positions i such that swapping events i
// and i+1 is a legal, meaning-preserving transformation: the events
// run on different threads, neither is a thread operation, no racy
// edge (conflict or sync) connects them, and the swap cannot demote
// thread 0's leading event. Swaps across a racy edge are refused by
// construction — commuting conflicting accesses changes which write a
// read observes, so no invariant holds there.
func CommutablePairs(ref *core.Slicer, tr cfa.ConcTrace) []int {
	racyAdj := map[int]bool{}
	for _, re := range ref.RacyEdges(tr) {
		if re.To == re.From+1 {
			racyAdj[re.From] = true
		}
	}
	var pairs []int
	for i := 0; i+1 < len(tr); i++ {
		a, b := tr[i], tr[i+1]
		if a.TID == b.TID || racyAdj[i] || i == 0 {
			continue
		}
		if k := a.Edge.Op.Kind; k == cfa.OpSpawn || k == cfa.OpJoin {
			continue
		}
		if k := b.Edge.Op.Kind; k == cfa.OpSpawn || k == cfa.OpJoin {
			continue
		}
		pairs = append(pairs, i)
	}
	return pairs
}

// CheckConcCommute runs the commute invariant over one trace: for each
// commutable adjacent pair (capped), the swapped trace's slice must be
// bit-identical modulo the swap — same taken bits with positions i and
// i+1 exchanged, same live set, same racy-edge and region counts —
// and the feasibility verdict must not move. Checked pairs are
// reported so the campaign can count them.
func CheckConcCommute(prog *cfa.Program, tr cfa.ConcTrace, sopts core.Options) (*ConcReport, int) {
	rep := &ConcReport{}
	sut := core.NewWithOptions(prog, sopts)
	ref := core.New(prog)
	base, err := sut.ConcSlice(tr)
	if err != nil {
		rep.violate("slicer-error", "ConcSlice failed on the base trace: %v", err)
		return rep, 0
	}
	rbase, _ := ref.CheckConcFeasibility(context.Background(), base.Slice)

	pairs := CommutablePairs(ref, tr)
	const maxSwaps = 6
	if len(pairs) > maxSwaps {
		pairs = pairs[:maxSwaps]
	}
	checked := 0
	for _, i := range pairs {
		swapped := append(cfa.ConcTrace{}, tr...)
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		if verr := swapped.Validate(prog); verr != nil {
			rep.violate("metamorphic", "commutable swap at %d produced an invalid trace: %v", i, verr)
			continue
		}
		res, err := sut.ConcSlice(swapped)
		if err != nil {
			rep.violate("slicer-error", "ConcSlice failed on a commuted trace: %v", err)
			continue
		}
		checked++
		mPairs.Inc()
		for j := range res.Taken {
			want := base.Taken[j]
			switch j {
			case i:
				want = base.Taken[i+1]
			case i + 1:
				want = base.Taken[i]
			}
			if res.Taken[j] != want {
				rep.violate("metamorphic",
					"commuting independent events %d,%d changed the slice at event %d", i, i+1, j)
				break
			}
		}
		if res.Live.String() != base.Live.String() {
			rep.violate("metamorphic", "commuting independent events %d,%d changed the live set (%s → %s)",
				i, i+1, base.Live, res.Live)
		}
		// Region COUNTS are positional (boundary gaps can merge under a
		// swap), so only the racy-edge set's cardinality is invariant.
		if res.Stats.RacyEdges != base.Stats.RacyEdges {
			rep.violate("metamorphic",
				"commuting independent events %d,%d changed the racy-edge count (%d → %d)",
				i, i+1, base.Stats.RacyEdges, res.Stats.RacyEdges)
		}
		rswap, _ := ref.CheckConcFeasibility(context.Background(), res.Slice)
		if rbase.Status != smt.StatusUnknown && rswap.Status != smt.StatusUnknown &&
			rbase.Status != rswap.Status {
			rep.violate("metamorphic", "commuting independent events %d,%d changed the verdict (%v → %v)",
				i, i+1, rbase.Status, rswap.Status)
		}
	}
	mViolations.Add(int64(len(rep.Violations)))
	return rep, checked
}
