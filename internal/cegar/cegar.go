// Package cegar implements a BLAST-style counterexample-guided
// abstraction refinement model checker over CFAs (§5 of the paper: the
// application context in which path slicing runs).
//
// The checker performs predicate-abstraction reachability: abstract
// states are (location, call stack, three-valued predicate valuation);
// the abstract post is computed with weakest-precondition entailment
// queries against the SMT solver. When an abstract path reaches the
// target location, the counterexample-analysis phase runs Algorithm
// PathSlice on it (exactly as the paper's implementation does inside
// BLAST), decides feasibility of the *slice*, and either reports a bug
// with the succinct slice as the witness, or mines new predicates from
// the infeasible slice and restarts.
//
// Without slicing (Options.UseSlicing = false), the raw counterexample
// is analyzed instead — the configuration the paper reports "did not
// scale to any of these examples".
//
// The loop is instrumented through internal/obs: every Check emits a
// "check" span, every refinement round a "cegar-iteration" span (with
// predicate counts and counterexample/slice sizes as attributes), and
// the registry accumulates cegar_* counters — solver calls, abstract
// posts, post-memo hits, states explored, and the solver-worker queue
// high-water mark. See docs/OBSERVABILITY.md for the catalogue.
package cegar

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathslice/internal/cfa"
	"pathslice/internal/core"
	"pathslice/internal/faults"
	"pathslice/internal/lang/ast"
	"pathslice/internal/lang/token"
	"pathslice/internal/logic"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// Registry metrics for the CEGAR loop (see docs/OBSERVABILITY.md).
// Totals accumulate across every Checker in the process; per-check
// attribution stays on Result.
var (
	mChecks           = obs.Default().Counter("cegar_checks_total")
	mRefinements      = obs.Default().Counter("cegar_refinements_total")
	mSolverCalls      = obs.Default().Counter("cegar_solver_calls_total")
	mPostMemoHits     = obs.Default().Counter("cegar_post_memo_hits_total")
	mAbstractPosts    = obs.Default().Counter("cegar_abstract_posts_total")
	mStatesExplored   = obs.Default().Counter("cegar_states_explored_total")
	mPredicates       = obs.Default().Gauge("cegar_predicates")
	mSolverQueueDepth = obs.Default().Gauge("cegar_solver_queue_depth_max")

	// mRecoveredPanics is the process-wide recovered-panic counter
	// shared with internal/core (same registry name → same handle). It
	// counts panics contained at the worker-pool and Check boundaries.
	mRecoveredPanics = obs.Default().Counter("recovered_panics_total")
)

// Verdict classifies a check outcome.
type Verdict int

// The verdicts.
const (
	// VerdictSafe: the target location is unreachable.
	VerdictSafe Verdict = iota
	// VerdictUnsafe: a feasible (slice of a) path to the target exists.
	VerdictUnsafe
	// VerdictTimeout: the work budget or wall-clock deadline was
	// exhausted.
	VerdictTimeout
	// VerdictDiverged: refinement found no new predicates.
	VerdictDiverged
	// VerdictUnknown: a feasibility query could not be decided (solver
	// limit, fault, or contained internal error), so the check can
	// assert neither safety nor a bug. New verdicts append here so the
	// numeric values above stay stable.
	VerdictUnknown
)

// String renders the verdict like the paper's Results column.
func (v Verdict) String() string {
	switch v {
	case VerdictSafe:
		return "safe"
	case VerdictUnsafe:
		return "error"
	case VerdictTimeout:
		return "timeout"
	case VerdictDiverged:
		return "diverged"
	case VerdictUnknown:
		return "unknown"
	}
	return "?"
}

// Decided reports whether the verdict is a definitive Safe/Unsafe
// answer (as opposed to a resource- or fault-induced give-up).
func (v Verdict) Decided() bool {
	return v == VerdictSafe || v == VerdictUnsafe
}

// Options configures a check.
type Options struct {
	// UseSlicing runs PathSlice on abstract counterexamples before
	// feasibility analysis and refinement (the paper's contribution).
	UseSlicing bool
	// SlicerOpts forwards options to the path slicer.
	SlicerOpts core.Options
	// MaxRefinements bounds refinement rounds (default 40).
	MaxRefinements int
	// MaxWork bounds total work units — abstract states explored plus
	// solver queries — emulating the paper's wall-clock timeout
	// deterministically (default 200000).
	MaxWork int
	// MaxTraceLen aborts counterexamples longer than this (default
	// 200000 edges).
	MaxTraceLen int
	// DFS makes the reachability search depth-first, which produces the
	// long counterexamples the paper observes with BLAST (§5,
	// Limitations); otherwise breadth-first.
	DFS bool
	// MaxPreds caps the predicate set (default 60).
	MaxPreds int
	// ExactCover disables subsumption-based covering: a state is then
	// only covered by an identical (location, stack, valuation) state.
	// With subsumption (the default, as in lazy abstraction), a state
	// is covered by any visited state at the same location and stack
	// whose valuation is weaker — it represents a superset of concrete
	// states, so exploring the new state cannot reach anything new.
	ExactCover bool
	// NoLocalize disables predicate localization. With localization
	// (the default, in the spirit of lazy abstraction's per-region
	// predicates), a predicate mentioning some function's locals is
	// only evaluated while that function is on the call stack; outside
	// it the value is unknown. This is sound (unknown never constrains)
	// and loses no precision: a MiniC local is always written before it
	// is read within an activation, so stale cross-activation facts are
	// never needed.
	NoLocalize bool
	// SolverWorkers fans the independent per-predicate entailment pairs
	// of the abstract post out over this many goroutines (values <= 1
	// keep the post sequential). The computed valuations, verdicts,
	// refinement counts, and Work are identical to the sequential run:
	// only wall-clock time changes.
	SolverWorkers int
	// DisableSolverCache turns off the formula-level solver result
	// cache (identical formulas are then re-solved every time).
	DisableSolverCache bool
	// DisablePostMemo turns off abstract-post memoization (every
	// (edge, valuation) successor is then recomputed from scratch).
	DisablePostMemo bool
	// SolverCacheSize bounds the solver cache entries (default
	// smt.DefaultCacheSize).
	SolverCacheSize int
	// SharedCache, when non-nil, replaces the checker's private solver
	// cache with a caller-owned one, letting many checkers (and the
	// slice-feasibility path) share one long-lived verdict store.
	// Cached verdicts are pure facts about formulas, so sharing across
	// programs is sound. Overrides DisableSolverCache/SolverCacheSize.
	// Per-check CacheHits/CacheMisses attribution assumes the cache is
	// not used concurrently by others during the check.
	SharedCache *smt.Cache
	// Deadline bounds the wall-clock time of one Check; zero means no
	// deadline. On expiry the check stops at the next cancellation
	// point and returns VerdictTimeout. Deadlines are sound: they can
	// weaken a verdict to Timeout/Unknown but never flip Safe and
	// Unsafe (docs/ROBUSTNESS.md).
	Deadline time.Duration
	// SolverLimits bounds the abstract-post entailment and refinement
	// queries (the per-query analogue of Deadline). Zero fields keep
	// the solver defaults.
	SolverLimits smt.Limits
	// OnRefinement, when set, observes every counterexample verdict the
	// loop acts on: the raw abstract counterexample, the path actually
	// analyzed (the slice when UseSlicing), and the feasibility status
	// the decision was based on (StatusUnsat for early-stop proofs).
	// The oracle subsystem uses it to cross-check each refinement
	// verdict against concrete replay; it must not mutate the paths.
	OnRefinement func(trace, analyzed cfa.Path, status smt.Status)
}

func (o Options) withDefaults() Options {
	if o.MaxRefinements <= 0 {
		o.MaxRefinements = 40
	}
	if o.MaxWork <= 0 {
		o.MaxWork = 200000
	}
	if o.MaxTraceLen <= 0 {
		o.MaxTraceLen = 200000
	}
	if o.MaxPreds <= 0 {
		o.MaxPreds = 60
	}
	return o
}

// TraceStat records one abstract counterexample and its slice — the
// per-trace data behind Figures 5 and 6.
type TraceStat struct {
	TraceEdges  int
	TraceBlocks int
	SliceEdges  int
	SliceBlocks int
	Feasible    bool
}

// RatioPercent returns slice size as a percentage of trace size (in
// basic blocks), the y-axis of Figures 5 and 6.
func (ts TraceStat) RatioPercent() float64 {
	if ts.TraceBlocks == 0 {
		return 0
	}
	return 100 * float64(ts.SliceBlocks) / float64(ts.TraceBlocks)
}

// Result reports one check.
type Result struct {
	Verdict     Verdict
	Refinements int
	Work        int
	Predicates  int
	// SolverCalls counts the decision-procedure invocations actually
	// issued by the abstract post (branch-pruning and predicate
	// entailment queries). Work, in contrast, is the logical query
	// count — the cost model that feeds MaxWork — and is independent of
	// the cache and memo configuration, so enabling them stretches the
	// same budget over more real progress without changing verdicts.
	SolverCalls int64
	// CacheHits and CacheMisses are the solver-cache counters
	// accumulated during this check (both zero when the cache is
	// disabled; CacheMisses then equals 0 while SolverCalls counts the
	// uncached solves).
	CacheHits, CacheMisses int64
	// PostMemoHits counts abstract-post computations answered (fully or
	// partially) from the (edge, valuation) memo table.
	PostMemoHits int64
	// Witness is the feasible slice (or raw trace without slicing)
	// demonstrating the bug, when Verdict is VerdictUnsafe.
	Witness cfa.Path
	// RawCounterexample is the last abstract counterexample.
	RawCounterexample cfa.Path
	// Traces records every abstract counterexample analyzed.
	Traces []TraceStat
	// Err carries the contained internal error when Verdict is
	// VerdictUnknown because a panic was recovered at the Check
	// boundary; nil otherwise.
	Err error
}

// Checker holds the per-program machinery shared across checks.
type Checker struct {
	prog      *cfa.Program
	slicer    *core.Slicer
	opts      Options
	predScope map[string][]string // predicate → functions whose locals it mentions

	// cache memoizes solver verdicts across states, refinement
	// iterations, and targets; nil when disabled.
	cache *smt.Cache
	// postMemo memoizes abstract-post results keyed by (edge, determined
	// predicate valuation, localization scope). Entries stay valid
	// across refinement iterations — the predicate list only grows, an
	// old predicate's WP entailment depends only on the edge and the
	// determined conjuncts captured in the key, and undetermined new
	// predicates add no conjunct — so a lookup reuses the old prefix
	// and computes only the newly-added predicates. Reset per Check
	// (predicate indices restart).
	postMemo map[string]*postMemoEntry

	// uncachedCalls counts smt.Solve invocations when the cache is
	// disabled (with the cache on, its miss counter plays this role).
	uncachedCalls atomic.Int64
	memoHits      int64
}

// New builds a checker for prog.
func New(prog *cfa.Program, opts Options) *Checker {
	opts = opts.withDefaults()
	c := &Checker{
		prog:      prog,
		slicer:    core.NewWithOptions(prog, opts.SlicerOpts),
		opts:      opts,
		predScope: make(map[string][]string),
	}
	if opts.SharedCache != nil {
		c.cache = opts.SharedCache
	} else if !opts.DisableSolverCache {
		c.cache = smt.NewCache(opts.SolverCacheSize)
	}
	return c
}

// maxPostMemoEntries caps the persistent abstract-post memo; crossing
// it flushes the table at the next Check (a warm service trades the
// occasional cold start for bounded memory).
const maxPostMemoEntries = 1 << 17

// solve routes an abstract-post query through the solver cache, under
// the check's context and per-query limits. A cancelled or
// limit-exhausted query answers StatusUnknown — never a wrong verdict.
func (c *Checker) solve(ctx context.Context, f logic.Formula) smt.Result {
	if c.cache == nil {
		c.uncachedCalls.Add(1)
	}
	return smt.CachedSolveCtx(ctx, c.cache, f, c.opts.SolverLimits)
}

// cacheStats snapshots the checker's solver-cache counters (zero when
// the cache is disabled). The process-wide totals live on the obs
// registry (smt_cache_*_total); this private view exists only to
// compute per-check deltas for Result.
func (c *Checker) cacheStats() smt.CacheStats {
	if c.cache == nil {
		return smt.CacheStats{}
	}
	return c.cache.Stats()
}

// Check decides reachability of target. It never panics: internal
// failures are contained and reported as VerdictUnknown with Result.Err
// set.
func (c *Checker) Check(target *cfa.Loc) *Result {
	res, err := c.CheckCtx(context.Background(), target)
	if err != nil {
		return &Result{Verdict: VerdictUnknown, Err: err}
	}
	return res
}

// CheckCtx is Check under a context. The context (and Options.Deadline,
// whichever expires first) bounds wall-clock time: on expiry the check
// stops at the next cancellation point — including inside a running
// solver query — and returns VerdictTimeout. A panic escaping any layer
// below is recovered here and returned as an error, leaving the Checker
// usable for further checks.
func (c *Checker) CheckCtx(ctx context.Context, target *cfa.Loc) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Deadline)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			mRecoveredPanics.Inc()
			res, err = nil, fmt.Errorf("cegar: panic during check: %v", r)
		}
	}()
	csp := obs.StartNamedSpan(obs.PhaseCheck, "check "+target.String())
	res = &Result{}
	// The abstract-post memo persists across checks: its keys are
	// content-based (edge, determined conjuncts by predicate string,
	// scope), so entries from an earlier check of the same program stay
	// valid even though predicate indices restart. A long-lived Checker
	// (cmd/slicerd) therefore answers repeat traffic from a warm memo;
	// the cap below bounds its memory on pathological workloads.
	if c.postMemo == nil || len(c.postMemo) > maxPostMemoEntries {
		c.postMemo = make(map[string]*postMemoEntry)
	}
	startUncached := c.uncachedCalls.Load()
	startCache := c.cacheStats()
	startMemo := c.memoHits
	defer func() {
		cs := c.cacheStats()
		res.CacheHits = cs.Hits - startCache.Hits
		res.CacheMisses = cs.Misses - startCache.Misses
		res.SolverCalls = res.CacheMisses + c.uncachedCalls.Load() - startUncached
		res.PostMemoHits = c.memoHits - startMemo
		mChecks.Inc()
		mRefinements.Add(int64(res.Refinements))
		mSolverCalls.Add(res.SolverCalls)
		mPostMemoHits.Add(res.PostMemoHits)
		csp.EndWith(map[string]any{
			"verdict":      res.Verdict.String(),
			"refinements":  res.Refinements,
			"work":         res.Work,
			"predicates":   res.Predicates,
			"solver_calls": res.SolverCalls,
		})
	}()
	var preds []logic.Formula
	seen := make(map[string]bool) // predicate strings, for dedup

	for iter := 1; ; iter++ {
		isp := obs.StartNamedSpan(obs.PhaseCEGARIter, fmt.Sprintf("iteration %d", iter))
		attrs := map[string]any{"predicates": len(preds)}
		mPredicates.Set(int64(len(preds)))
		done := c.checkIteration(ctx, target, res, &preds, seen, attrs)
		isp.EndWith(attrs)
		if done {
			return res, nil
		}
	}
}

// checkIteration runs one round of the CEGAR loop — abstract
// reachability, counterexample analysis (slice + feasibility), and
// refinement — mutating res and preds. It reports whether the check
// is decided; attrs collects the per-iteration trace attributes
// (predicate count, counterexample and slice sizes, outcome).
func (c *Checker) checkIteration(ctx context.Context, target *cfa.Loc, res *Result, preds *[]logic.Formula, seen map[string]bool, attrs map[string]any) bool {
	if res.Refinements >= c.opts.MaxRefinements || ctx.Err() != nil {
		res.Verdict = VerdictTimeout
		attrs["outcome"] = res.Verdict.String()
		return true
	}
	path, work, exhausted := c.reach(ctx, target, *preds, c.opts.MaxWork-res.Work)
	res.Work += work
	if path == nil {
		if exhausted || res.Work >= c.opts.MaxWork {
			res.Verdict = VerdictTimeout
		} else {
			res.Verdict = VerdictSafe
		}
		res.Predicates = len(*preds)
		attrs["outcome"] = res.Verdict.String()
		return true
	}
	res.RawCounterexample = path
	res.Refinements++
	attrs["trace_edges"] = len(path)

	// Counterexample analysis phase: slice, then decide.
	analyzed := path
	var stat TraceStat
	stat.TraceEdges = len(path)
	stat.TraceBlocks = path.BasicBlocks()
	if c.opts.UseSlicing {
		sr, err := c.slicer.SliceCtx(ctx, path)
		if err != nil {
			// Invalid path or a panic contained inside the slicer:
			// neither safety nor a bug is established.
			res.Verdict = VerdictUnknown
			res.Err = err
			attrs["outcome"] = res.Verdict.String()
			return true
		}
		analyzed = sr.Slice
		stat.SliceEdges = sr.Stats.SliceEdges
		stat.SliceBlocks = sr.Stats.SliceBlocks
		attrs["slice_edges"] = stat.SliceEdges
		if sr.KnownInfeasible {
			// Early-stop already proved infeasibility.
			if c.opts.OnRefinement != nil {
				c.opts.OnRefinement(path, analyzed, smt.StatusUnsat)
			}
			res.Traces = append(res.Traces, stat)
			newPreds, grew := c.refine(ctx, analyzed, *preds, seen)
			if !grew {
				res.Verdict = VerdictDiverged
				res.Predicates = len(*preds)
				attrs["outcome"] = res.Verdict.String()
				return true
			}
			*preds = newPreds
			attrs["outcome"] = "refined-early-stop"
			return false
		}
	} else {
		stat.SliceEdges = stat.TraceEdges
		stat.SliceBlocks = stat.TraceBlocks
	}

	fr, _ := c.slicer.CheckFeasibilityCtx(ctx, analyzed)
	res.Work += 50 // a feasibility query is heavy
	if c.opts.OnRefinement != nil {
		c.opts.OnRefinement(path, analyzed, fr.Status)
	}
	switch fr.Status {
	case smt.StatusSat:
		// Feasible slice (completeness: the target is reachable, or
		// the program diverges).
		stat.Feasible = true
		res.Traces = append(res.Traces, stat)
		res.Verdict = VerdictUnsafe
		res.Witness = analyzed
		res.Predicates = len(*preds)
		attrs["outcome"] = res.Verdict.String()
		return true
	case smt.StatusUnknown:
		// The feasibility of the counterexample could not be decided
		// (deadline, solver limit, or injected fault). Degrade soundly:
		// report Timeout/Unknown rather than guessing a Safe or Unsafe
		// verdict (docs/ROBUSTNESS.md).
		res.Traces = append(res.Traces, stat)
		if ctx.Err() != nil {
			res.Verdict = VerdictTimeout
		} else {
			res.Verdict = VerdictUnknown
		}
		res.RawCounterexample = path
		res.Predicates = len(*preds)
		attrs["outcome"] = res.Verdict.String()
		return true
	default: // smt.StatusUnsat
		res.Traces = append(res.Traces, stat)
		newPreds, grew := c.refine(ctx, analyzed, *preds, seen)
		if !grew {
			res.Verdict = VerdictDiverged
			res.Predicates = len(*preds)
			attrs["outcome"] = res.Verdict.String()
			return true
		}
		*preds = newPreds
		attrs["outcome"] = "refined"
		return false
	}
}

// ---------------------------------------------------------------------------
// Abstract reachability

// absState is an abstract state: location, call stack, and a
// three-valued predicate valuation (+1 true, -1 false, 0 unknown).
type absState struct {
	loc   *cfa.Loc
	stack []*cfa.Edge // call edges; Dst is the resume location
	vals  []int8
	// parent and via reconstruct the abstract counterexample.
	parent *absState
	via    *cfa.Edge
}

// ctxKey identifies a state's control context (location + stack); the
// predicate valuation is handled by the covering relation.
func (st *absState) ctxKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", st.loc.ID)
	for _, e := range st.stack {
		fmt.Fprintf(&b, "%d,", e.ID)
	}
	return b.String()
}

// covers reports whether a visited valuation a subsumes b: every
// literal a determines, b determines the same way. Then a represents a
// superset of b's concrete states, and b's successors add nothing.
func covers(a, b []int8) bool {
	for i := range a {
		if a[i] != 0 && a[i] != b[i] {
			return false
		}
	}
	return true
}

// coverSet tracks visited valuations per control context.
type coverSet struct {
	exact bool
	m     map[string][][]int8
}

func newCoverSet(exact bool) *coverSet {
	return &coverSet{exact: exact, m: make(map[string][][]int8)}
}

// add registers the state and reports whether it was already covered.
func (cs *coverSet) add(st *absState) bool {
	k := st.ctxKey()
	for _, vals := range cs.m[k] {
		if cs.exact {
			same := true
			for i := range vals {
				if vals[i] != st.vals[i] {
					same = false
					break
				}
			}
			if same {
				return true
			}
		} else if covers(vals, st.vals) {
			return true
		}
	}
	cs.m[k] = append(cs.m[k], st.vals)
	return false
}

// stateFormula is the conjunction of determined predicates.
func stateFormula(preds []logic.Formula, vals []int8) logic.Formula {
	var fs []logic.Formula
	for i, v := range vals {
		switch v {
		case 1:
			fs = append(fs, preds[i])
		case -1:
			fs = append(fs, logic.MkNot(preds[i]))
		}
	}
	return logic.MkAnd(fs...)
}

// reach explores the abstract state space; it returns an abstract path
// to target (or nil), the work spent, and whether the budget ran out
// before the frontier was exhausted.
func (c *Checker) reach(ctx context.Context, target *cfa.Loc, preds []logic.Formula, budget int) (cfa.Path, int, bool) {
	if budget <= 0 {
		return nil, 0, true
	}
	sp := obs.StartSpan(obs.PhaseReach)
	defer sp.End()
	// Warm the predicate-scope table sequentially so the parallel post
	// workers only ever read it.
	if !c.opts.NoLocalize {
		for _, p := range preds {
			c.scopeOf(p)
		}
	}
	work := 0
	main := c.prog.Funcs[c.prog.Main]
	root := &absState{loc: main.Entry, vals: make([]int8, len(preds))}
	visited := newCoverSet(c.opts.ExactCover)
	visited.add(root)
	frontier := []*absState{root}

	pop := func() *absState {
		var st *absState
		if c.opts.DFS {
			st = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
		} else {
			st = frontier[0]
			frontier = frontier[1:]
		}
		return st
	}

	for len(frontier) > 0 {
		if work >= budget || ctx.Err() != nil {
			// Budget or wall-clock deadline exhausted mid-search: report
			// "ran out" so the check answers Timeout, never a premature
			// Safe.
			return nil, work, true
		}
		st := pop()
		if st.loc == target {
			return extractPath(st), work, false
		}
		work++
		mStatesExplored.Inc()
		for _, e := range st.loc.Out {
			succ, w := c.post(ctx, st, e, preds)
			work += w
			if succ == nil {
				continue
			}
			if visited.add(succ) {
				continue // covered
			}
			frontier = append(frontier, succ)
		}
	}
	return nil, work, false
}

// postMemoEntry is one memoized abstract-post computation. vals maps a
// predicate's canonical string to its successor value, so an entry is
// valid for any predicate list: a lookup reuses every predicate it has
// seen before (under the same determined source conjuncts, captured by
// the memo key) and computes only the rest. Content keying is what lets
// the memo outlive a single Check — indices restart per check, but a
// predicate's meaning does not (cmd/slicerd keeps one Checker per
// program and reuses this memo across requests).
type postMemoEntry struct {
	prunedKnown bool
	pruned      bool
	vals        map[string]int8
}

// freshStride separates the fresh-variable namespaces of the per-
// predicate WP computations so each predicate's formulas are identical
// regardless of the order (or concurrency) in which they are built.
// A single WPOp mints at most a handful of fresh variables per havoc
// or nondet read, far below the stride.
const freshStride = 4096

// memoKey identifies an abstract-post computation: the edge, the
// determined entries of the source valuation (exactly what stateFormula
// conjoins — undetermined predicates contribute nothing), and the
// localization scope (the set of functions on the stack decides which
// predicates are evaluated at all). Determined conjuncts are keyed by
// predicate content, not index, so a key stays valid across checks
// whose predicate lists differ (the predicate index space restarts per
// Check; its contents do not).
func (c *Checker) memoKey(st *absState, e *cfa.Edge, preds []logic.Formula) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", e.ID)
	for i, v := range st.vals {
		if v != 0 {
			fmt.Fprintf(&b, "%s:%d,", preds[i], v)
		}
	}
	if !c.opts.NoLocalize && len(st.stack) > 0 {
		names := make([]string, 0, len(st.stack))
		for _, call := range st.stack {
			names = append(names, call.Src.Fn.Name)
		}
		sort.Strings(names)
		b.WriteByte('|')
		for _, n := range names {
			b.WriteString(n)
			b.WriteByte(',')
		}
	}
	return b.String()
}

// post computes the abstract successor of st via edge e, or nil when
// the edge is abstractly infeasible. The work counter counts logical
// solver queries — the same number whether or not they were answered
// from the memo or cache, so budgets behave identically across
// configurations.
func (c *Checker) post(ctx context.Context, st *absState, e *cfa.Edge, preds []logic.Formula) (*absState, int) {
	work := 0
	mAbstractPosts.Inc()

	switch e.Op.Kind {
	case cfa.OpCall:
		callee := c.prog.Funcs[e.Op.Callee]
		if callee == nil {
			return nil, work
		}
		succ := &absState{loc: callee.Entry, vals: st.vals, parent: st, via: e}
		succ.stack = append(append([]*cfa.Edge{}, st.stack...), e)
		return succ, work
	case cfa.OpReturn:
		if len(st.stack) == 0 {
			return nil, work // program exit: never the target
		}
		resume := st.stack[len(st.stack)-1].Dst
		succ := &absState{loc: resume, vals: st.vals, parent: st, via: e}
		succ.stack = append([]*cfa.Edge{}, st.stack[:len(st.stack)-1]...)
		return succ, work
	}

	cur := stateFormula(preds, st.vals)
	var memo *postMemoEntry
	if !c.opts.DisablePostMemo {
		key := c.memoKey(st, e, preds)
		var ok bool
		if memo, ok = c.postMemo[key]; ok {
			c.memoHits++
		} else {
			memo = &postMemoEntry{vals: make(map[string]int8)}
			c.postMemo[key] = memo
		}
	}

	if e.Op.Kind == cfa.OpAssume {
		// Prune when the state cannot take the branch.
		work++
		if memo == nil || !memo.prunedKnown {
			fresh := 0
			predF, side := assumeFormula(e.Op, c.slicer, &fresh)
			pruned := c.solve(ctx, logic.MkAnd(append(side, cur, predF)...)).Status == smt.StatusUnsat
			if memo != nil {
				memo.prunedKnown, memo.pruned = true, pruned
			} else if pruned {
				return nil, work
			}
		}
		if memo != nil && memo.pruned {
			return nil, work
		}
	}

	// New valuation via WP entailment per predicate. Localization:
	// predicates scoped to functions not on the successor's stack stay
	// unknown and cost no solver queries. Predicates already covered by
	// the memo keep their cached value; the rest fan out over the
	// worker pool.
	vals := make([]int8, len(preds))
	var need []int
	var predKeys []string
	if memo != nil {
		predKeys = make([]string, len(preds))
	}
	for i, p := range preds {
		if !c.opts.NoLocalize && !c.predInScope(p, e.Dst, st.stack) {
			vals[i] = 0
			continue
		}
		work += 2
		if memo != nil {
			predKeys[i] = p.String()
			if v, ok := memo.vals[predKeys[i]]; ok {
				vals[i] = v
				continue // memoized
			}
		}
		need = append(need, i)
	}
	compute := func(i int) {
		// Contain panics per task: a crashed entailment leaves the
		// predicate unknown (0), which only weakens the abstraction —
		// sound — instead of taking the whole worker pool (and with it
		// the enclosing Check) down. WorkerPanic faults exercise
		// exactly this path (docs/ROBUSTNESS.md).
		defer func() {
			if r := recover(); r != nil {
				mRecoveredPanics.Inc()
				vals[i] = 0
			}
		}()
		if faults.Should(faults.WorkerPanic) {
			panic("faults: injected worker panic")
		}
		fresh := (i + 1) * freshStride
		p := preds[i]
		wpP := wp.WPOp(p, e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh)
		wpNotP := wp.WPOp(logic.MkNot(p), e.Op, c.slicer.Alias, c.slicer.Addrs, &fresh)
		pre := cur
		if e.Op.Kind == cfa.OpAssume {
			predF, side := assumeFormula(e.Op, c.slicer, &fresh)
			pre = logic.MkAnd(append(side, cur, predF)...)
		}
		switch {
		case c.solve(ctx, logic.MkAnd(pre, wpNotP)).Status == smt.StatusUnsat:
			vals[i] = 1 // every post-state satisfies p
		case c.solve(ctx, logic.MkAnd(pre, wpP)).Status == smt.StatusUnsat:
			vals[i] = -1
		default:
			vals[i] = 0
		}
	}
	mSolverQueueDepth.SetMax(int64(len(need)))
	if nw := c.opts.SolverWorkers; nw > 1 && len(need) > 1 {
		if nw > len(need) {
			nw = len(need)
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					compute(i)
				}
			}()
		}
		for _, i := range need {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	} else {
		for _, i := range need {
			compute(i)
		}
	}
	if memo != nil {
		for _, i := range need {
			memo.vals[predKeys[i]] = vals[i]
		}
	}
	succ := &absState{loc: e.Dst, vals: vals, parent: st, via: e,
		stack: st.stack}
	return succ, work
}

// scopeOf returns (computing and caching on first use) the functions
// whose locals predicate p mentions. It must be called from a single
// goroutine; reach warms the table before any parallel post runs, so
// predInScope only ever reads it.
func (c *Checker) scopeOf(p logic.Formula) []string {
	key := p.String()
	fns, ok := c.predScope[key]
	if !ok {
		seen := map[string]struct{}{}
		for _, v := range logic.Vars(p) {
			if fn := c.prog.FuncOf(v); fn != nil && !cfa.IsTransferVar(v) {
				seen[fn.Name] = struct{}{}
			}
		}
		for name := range seen {
			fns = append(fns, name)
		}
		c.predScope[key] = fns
	}
	return fns
}

// predInScope reports whether predicate p may be evaluated at a state
// whose location is loc with the given stack: every function whose
// locals the predicate mentions must be the current function or on the
// stack. Global-only predicates are always in scope.
func (c *Checker) predInScope(p logic.Formula, loc *cfa.Loc, stack []*cfa.Edge) bool {
	for _, name := range c.scopeOf(p) {
		if loc.Fn.Name == name {
			continue
		}
		onStack := false
		for _, call := range stack {
			if call.Src.Fn.Name == name {
				onStack = true
				break
			}
		}
		if !onStack {
			return false
		}
	}
	return true
}

// assumeFormula converts an assume predicate to a formula over plain
// variable names (reusing the WP machinery's conversion).
func assumeFormula(op cfa.Op, s *core.Slicer, fresh *int) (logic.Formula, []logic.Formula) {
	f := wp.WPOp(logic.True, op, s.Alias, s.Addrs, fresh)
	return f, nil
}

// extractPath walks parent pointers back to the root.
func extractPath(st *absState) cfa.Path {
	var rev cfa.Path
	for cur := st; cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.via)
	}
	out := make(cfa.Path, len(rev))
	for i, e := range rev {
		out[len(rev)-1-i] = e
	}
	return out
}

// ---------------------------------------------------------------------------
// Refinement

// refine mines new predicates from the atoms of the infeasible slice's
// trace formula, mapped back to unversioned program variables ("the
// refinement algorithm analyzes the output of the path slicer to find
// why a path is infeasible" — §1, after [16]).
func (c *Checker) refine(ctx context.Context, slice cfa.Path, preds []logic.Formula, seen map[string]bool) ([]logic.Formula, bool) {
	sp := obs.StartSpan(obs.PhaseRefine)
	defer sp.End()
	grew := false
	add := func(g logic.Formula) {
		if g == nil || len(preds) >= c.opts.MaxPreds {
			return
		}
		key := g.String()
		if seen[key] {
			return
		}
		seen[key] = true
		preds = append(preds, g)
		grew = true
	}
	// 1. Atoms of the slice's trace formula, unversioned. When the
	// formula is unsatisfiable (the usual case during refinement), mine
	// only the atoms of a minimized unsat core: the operations that
	// actually cause the infeasibility, per the parsimonious-abstraction
	// idea the paper cites ([16], "Abstractions from proofs").
	enc := wp.NewTraceEncoder(c.slicer.Prog, c.slicer.Alias, c.slicer.Addrs)
	solver := smt.NewSolverWithLimits(c.opts.SolverLimits)
	for _, op := range slice.Ops() {
		solver.Assert(enc.EncodeOp(op))
	}
	// An Unknown here (deadline, limit, or injected fault) falls back
	// to mining the whole trace formula — a superset of the unsat
	// core's atoms, so refinement can only get more predicates, never
	// wrong ones.
	var mineFrom []logic.Formula
	if r := solver.CheckCtx(ctx); r.Status == smt.StatusUnsat {
		core, _ := solver.UnsatCore()
		mineFrom = core
	} else {
		mineFrom = []logic.Formula{c.slicer.TraceFormula(slice)}
	}
	for _, f := range mineFrom {
		for _, a := range collectAtoms(f) {
			add(unversion(a))
		}
	}
	// 2. Constant facts established along the slice: propagate known
	// constants forward through the slice's assignments and record
	// `x == c` at every point a constant is produced. This recovers the
	// facts an interpolating prover would find for increment chains
	// ("Abstractions from proofs"-lite).
	consts := make(map[string]int64)
	for _, e := range slice {
		op := e.Op
		if op.Kind != cfa.OpAssign {
			continue
		}
		if op.LHS.Deref {
			// A store through a pointer invalidates may-targets.
			for _, v := range c.slicer.Alias.Pts(op.LHS.Var) {
				delete(consts, v)
			}
			continue
		}
		if v, ok := evalConst(op.RHS, consts); ok {
			consts[op.LHS.Var] = v
			add(logic.Cmp{Op: logic.CmpEq,
				X: logic.Var{Name: op.LHS.Var}, Y: logic.Const{V: v}})
		} else {
			delete(consts, op.LHS.Var)
		}
	}
	return preds, grew
}

// evalConst evaluates an expression under a constant environment.
func evalConst(e ast.Expr, consts map[string]int64) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.Ident:
		v, ok := consts[e.Name]
		return v, ok
	case *ast.Unary:
		if e.Op == token.MINUS {
			v, ok := evalConst(e.X, consts)
			return -v, ok
		}
		if e.Op == token.NOT {
			v, ok := evalConst(e.X, consts)
			if !ok {
				return 0, false
			}
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *ast.Binary:
		x, okx := evalConst(e.X, consts)
		y, oky := evalConst(e.Y, consts)
		if !okx || !oky {
			return 0, false
		}
		switch e.Op {
		case token.PLUS:
			return x + y, true
		case token.MINUS:
			return x - y, true
		case token.STAR:
			return x * y, true
		case token.SLASH:
			if y == 0 {
				return 0, false
			}
			return x / y, true
		case token.PERCENT:
			if y == 0 {
				return 0, false
			}
			return x % y, true
		}
		return 0, false
	}
	return 0, false
}

// collectAtoms gathers the comparison atoms of a formula.
func collectAtoms(f logic.Formula) []logic.Cmp {
	var out []logic.Cmp
	var walk func(g logic.Formula)
	walk = func(g logic.Formula) {
		switch g := g.(type) {
		case logic.Cmp:
			out = append(out, g)
		case logic.Not:
			walk(g.F)
		case logic.And:
			for _, h := range g.Fs {
				walk(h)
			}
		case logic.Or:
			for _, h := range g.Fs {
				walk(h)
			}
		}
	}
	walk(f)
	return out
}

// unversion strips SSA "@k" suffixes from an atom's variables and drops
// atoms that mention solver-internal variables ($in, $u, $f, $h).
func unversion(a logic.Cmp) logic.Formula {
	vars := make(map[string]struct{})
	logic.TermVars(a.X, vars)
	logic.TermVars(a.Y, vars)
	if len(vars) == 0 {
		return nil // ground atom: useless as a predicate
	}
	sub := make(map[string]logic.Term, len(vars))
	for name := range vars {
		if strings.HasPrefix(name, "$") {
			return nil
		}
		base := name
		if i := strings.LastIndex(name, "@"); i >= 0 {
			base = name[:i]
		}
		sub[name] = logic.Var{Name: base}
	}
	return logic.Subst(logic.Formula(a), sub)
}

// PredicateStrings renders a predicate list deterministically (for
// tests and debugging).
func PredicateStrings(preds []logic.Formula) []string {
	out := make([]string, len(preds))
	for i, p := range preds {
		out[i] = p.String()
	}
	sort.Strings(out)
	return out
}
