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
// posts, post-memo hits, states explored, entailments the frame rule
// answered, conjuncts the cones left out, and the most entailments one
// abstract post computed. See docs/OBSERVABILITY.md for the catalogue.
package cegar

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
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
	mChecks         = obs.Default().Counter("cegar_checks_total")
	mRefinements    = obs.Default().Counter("cegar_refinements_total")
	mSolverCalls    = obs.Default().Counter("cegar_solver_calls_total")
	mPostMemoHits   = obs.Default().Counter("cegar_post_memo_hits_total")
	mAbstractPosts  = obs.Default().Counter("cegar_abstract_posts_total")
	mStatesExplored = obs.Default().Counter("cegar_states_explored_total")
	mPredicates     = obs.Default().Gauge("cegar_predicates")
	mPostEntailsMax = obs.Default().Gauge("cegar_post_entailments_max")
	mFrameSkips     = obs.Default().Counter("cegar_post_frame_skips_total")
	mConeDropped    = obs.Default().Counter("cegar_post_cone_dropped_total")

	// mRecoveredPanics is the process-wide recovered-panic counter
	// shared with internal/core (same registry name → same handle). It
	// counts panics contained per entailment task and at the Check
	// boundary.
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
	// DisableSolverCache turns off the formula-level solver result
	// cache (identical formulas are then re-solved every time).
	DisableSolverCache bool
	// DisablePostMemo turns off abstract-post memoization (every
	// (edge, valuation) successor is then recomputed from scratch).
	DisablePostMemo bool
	// SharedCache, when non-nil, replaces the checker's private solver
	// cache with a caller-owned one, letting many checkers (and the
	// slice-feasibility path) share one long-lived verdict store.
	// Cached verdicts are pure facts about formulas, so sharing across
	// programs is sound. Overrides DisableSolverCache.
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
	prog   *cfa.Program
	slicer *core.Slicer
	opts   Options

	// cache memoizes solver verdicts across states, refinement
	// iterations, and targets; nil when disabled.
	cache *smt.Cache
	// postMemo memoizes abstract-post results keyed by (edge, determined
	// predicate valuation, localization scope). Entries stay valid
	// across refinement iterations — the predicate list only grows, an
	// old predicate's WP entailment depends only on the edge and the
	// determined conjuncts captured in the key, and undetermined new
	// predicates add no conjunct — so a lookup reuses the old prefix
	// and computes only the newly-added predicates. The map holds each
	// entry's index in memos, so an entry is not an object of its own,
	// and an entry's first values are carved from memoVals.
	postMemo map[string]int32
	memos    []postMemoEntry
	memoVals []memoVal
	// predIDs numbers predicate contents for postMemo's keys and
	// entries. It is created and flushed together with postMemo, so an
	// ID names the same content for as long as any entry that holds it.
	predIDs map[string]uint32
	// edges holds what the post reads of each edge, indexed by edge ID
	// and filled on first use (compiledEdge). It lives as long as the
	// checker, so a long-lived checker (cmd/slicerd) converts each edge
	// once across all its checks.
	edges []*compiledEdge
	// varIDs numbers the variables the post's queries mention
	// (varNum). Predicates and edges carry their variables as numbers,
	// and pre and split index their slices by them.
	varIDs map[string]int32
	// pre, split and computed are scratch reused by every post: a
	// checker runs one post at a time (cmd/slicerd serializes each
	// checker). computed collects the values a post computed, which
	// join its memo entry in one append.
	pre      entailPre
	split    querySplit
	computed []memoVal
	// keyBuf and scopeBuf are memoKey's scratch space.
	keyBuf   []byte
	scopeBuf []string
	// vals and stack hold the successor one post computes until reach
	// keeps it (exploration.keep). They are bounded by one post; the
	// exploration itself never outlives reach.
	vals  []int8
	stack []*cfa.Edge

	// uncachedCalls counts smt.Solve invocations when the cache is
	// disabled (with the cache on, its miss counter plays this role).
	uncachedCalls int64
	memoHits      int64

	// Test hooks, set only through export_test.go: checkEntail and
	// checkPrune observe every entailment and prune the post decides.
	// The rest plant wrong rules the cross-check must catch:
	// dropConnected leaves one connected conjunct out of each component
	// of an entailment query, dropGuardLiteral one connected literal out
	// of a prune query, copyUndetermined copies undetermined values
	// across assumes, and skipLastComponent calls the last component of
	// each entailment query Sat without deciding it. reachRoot observes
	// each reach's root state, and keepExploration plants the retention
	// a long-lived checker must not have: it keeps the last exploration
	// in kept. onRefine observes each refinement (whether it mined an
	// unsat core, the variables its mined core atoms name, its slice and
	// the predicate list after it), refineUnknown makes each refinement
	// solve answer Unknown, and eagerConstants plants the constant pass
	// that ignores the core.
	checkEntail       func(st *absState, e *cfa.Edge, preds []predicate, i int, got int8)
	checkPrune        func(st *absState, e *cfa.Edge, preds []predicate, pruned bool)
	dropConnected     bool
	dropGuardLiteral  bool
	copyUndetermined  bool
	skipLastComponent bool
	reachRoot         func(root *absState)
	keepExploration   bool
	kept              *exploration
	onRefine          func(fromCore bool, named map[string]struct{}, slice cfa.Path, preds []predicate)
	refineUnknown     bool
	eagerConstants    bool
}

// New builds a checker for prog.
func New(prog *cfa.Program, opts Options) *Checker {
	opts = opts.withDefaults()
	c := &Checker{
		prog:   prog,
		slicer: core.NewWithOptions(prog, opts.SlicerOpts),
		opts:   opts,
		edges:  make([]*compiledEdge, prog.NumEdges()),
		varIDs: make(map[string]int32),
	}
	if opts.SharedCache != nil {
		c.cache = opts.SharedCache
	} else if !opts.DisableSolverCache {
		c.cache = smt.NewCache(smt.DefaultCacheSize)
	}
	return c
}

// maxPostMemoEntries caps the persistent abstract-post memo; crossing
// it flushes the table at the next Check (a warm service trades the
// occasional cold start for bounded memory).
const maxPostMemoEntries = 1 << 17

// readyMemo creates the abstract-post memo, or flushes it once it has
// outgrown maxPostMemoEntries.
func (c *Checker) readyMemo() {
	if c.postMemo == nil || len(c.postMemo) > maxPostMemoEntries {
		c.postMemo, c.memos, c.memoVals = make(map[string]int32), nil, nil
		c.predIDs = make(map[string]uint32)
	}
}

// solve routes an abstract-post query through the solver cache, under
// the check's context and per-query limits. A cancelled or
// limit-exhausted query answers StatusUnknown — never a wrong verdict.
func (c *Checker) solve(ctx context.Context, f logic.Formula) smt.Result {
	if c.cache == nil {
		c.uncachedCalls++
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
	// content-based (edge, determined conjuncts by predicate content ID,
	// scope), so entries from an earlier check of the same program stay
	// valid even though predicate indices restart. A long-lived Checker
	// (cmd/slicerd) therefore answers repeat traffic from a warm memo;
	// the cap below bounds its memory on pathological workloads.
	c.readyMemo()
	startUncached := c.uncachedCalls
	startCache := c.cacheStats()
	startMemo := c.memoHits
	defer func() {
		cs := c.cacheStats()
		res.CacheHits = cs.Hits - startCache.Hits
		res.CacheMisses = cs.Misses - startCache.Misses
		res.SolverCalls = res.CacheMisses + c.uncachedCalls - startUncached
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
	var preds []predicate
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
func (c *Checker) checkIteration(ctx context.Context, target *cfa.Loc, res *Result, preds *[]predicate, seen map[string]bool, attrs map[string]any) bool {
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
	// next links the visited states of one control context, oldest
	// first (exploration.covered); queue links the frontier.
	next, queue *absState
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

// exploration is one reach's state: the states it keeps, the cover set
// over them and the frontier. It lives only as long as that reach, so a
// long-lived checker (cmd/slicerd) pins nothing of an exploration once
// it returns. States, control contexts, valuations and call stacks are
// carved from chunks that double up to chunkMax states, and the
// frontier is a list through the states, so keeping a state is a few
// slice operations rather than allocations of its own.
//
// The cover set indexes control contexts (location and stack; the
// valuation is the covering relation's) by location: byLoc holds, per
// location ID, the newest context there, and each context links to the
// previous one at its location. A location has few contexts (one per
// distinct stack it is reached under: at most three on Table 1, where
// nearly every context holds one state), so finding one compares a
// stack or two and allocates nothing.
type exploration struct {
	exact bool
	byLoc []*ctxList
	// found is the context covered last looked up, nil when it was new.
	found *ctxList

	// head and tail end the frontier, linked through absState.queue: a
	// queue for BFS, a stack (tail unused) for DFS.
	dfs        bool
	head, tail *absState

	chunk  int // states per chunk, doubling up to chunkMax
	states []absState
	ctxs   []ctxList
	vals   []int8 // room for the valuations of the chunk's other states
	stacks []*cfa.Edge
}

// ctxList holds one control context's states, oldest first, linked
// through absState.next, and the previous context at its location.
type ctxList struct {
	first, last *absState
	prev        *ctxList
}

// chunkMax bounds the states one chunk holds; stackChunk is how many
// call stacks one chunk of stacks holds, as calls are a small share of
// the states.
const (
	chunkMax   = 1024
	stackChunk = 32
)

func newExploration(prog *cfa.Program, exact, dfs bool) *exploration {
	return &exploration{exact: exact, dfs: dfs, byLoc: make([]*ctxList, prog.NumLocs()), chunk: 16}
}

// covered reports whether a visited state of st's control context
// covers st (with ExactCover: has st's valuation). It allocates
// nothing; keep then registers st when it was not covered.
func (x *exploration) covered(st *absState) bool {
	x.found = x.byLoc[st.loc.ID]
	for x.found != nil && !slices.Equal(x.found.first.stack, st.stack) {
		x.found = x.found.prev
	}
	if x.found == nil {
		return false
	}
	for v := x.found.first; v != nil; v = v.next {
		if x.exact {
			if slices.Equal(v.vals, st.vals) {
				return true
			}
		} else if covers(v.vals, st.vals) {
			return true
		}
	}
	return false
}

// keep copies st, which covered just found uncovered, into the
// exploration: its valuation when it lives in the post's scratch, and
// on a call its stack, which does too. Returns and calls share the
// parent's valuation, and returns and other edges a prefix of its
// stack, as those never change. The state joins its context's list and
// the frontier.
func (x *exploration) keep(st *absState) *absState {
	if len(x.states) == 0 {
		x.states = make([]absState, x.chunk)
		x.chunk = min(2*x.chunk, chunkMax)
	}
	kept := &x.states[0]
	x.states = x.states[1:]
	*kept = *st
	switch {
	case st.via == nil || st.via.Op.Kind != cfa.OpCall && st.via.Op.Kind != cfa.OpReturn:
		kept.vals = carve(&x.vals, st.vals, len(x.states)+1)
	case st.via.Op.Kind == cfa.OpCall:
		kept.stack = carve(&x.stacks, st.stack, stackChunk)
	}
	if x.found == nil {
		if len(x.ctxs) == 0 {
			x.ctxs = make([]ctxList, x.chunk)
		}
		x.found = &x.ctxs[0]
		x.ctxs = x.ctxs[1:]
		*x.found = ctxList{first: kept, prev: x.byLoc[st.loc.ID]}
		x.byLoc[st.loc.ID] = x.found
	} else {
		x.found.last.next = kept
	}
	x.found.last = kept
	switch {
	case x.dfs:
		kept.queue, x.head = x.head, kept
	case x.tail == nil:
		x.head, x.tail = kept, kept
	default:
		x.tail.queue, x.tail = kept, kept
	}
	return kept
}

// carve copies src into the front of *chunk, starting a chunk of room
// for copies more when it has too little left, and returns the copy,
// whose capacity ends at its length.
func carve[T any](chunk *[]T, src []T, copies int) []T {
	n := len(src)
	if len(*chunk) < n {
		*chunk = make([]T, n*copies)
	}
	dst := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	copy(dst, src)
	return dst
}

// pop removes the next state to expand: the newest with DFS, the
// oldest otherwise; nil when the frontier is empty.
func (x *exploration) pop() *absState {
	st := x.head
	if st != nil {
		x.head, st.queue = st.queue, nil
		if x.head == nil {
			x.tail = nil
		}
	}
	return st
}

// predicate is one abstraction predicate together with what the
// abstract post reads of it, computed once when refinement adds it:
// its negation, the ID of its content string in predIDs (memo keys
// outlive a check, so they name predicates by content), the numbers of
// its variables (the precondition's union-find) and the functions
// whose locals it mentions (localization).
type predicate struct {
	f, neg logic.Formula
	id     uint32
	vars   []int32
	scope  []*cfa.CFA
}

func (c *Checker) newPredicate(f logic.Formula, key string) predicate {
	id, ok := c.predIDs[key]
	if !ok {
		id = uint32(len(c.predIDs))
		c.predIDs[key] = id
	}
	p := predicate{f: f, neg: logic.MkNot(f), id: id}
	for _, v := range logic.Vars(f) {
		p.vars = append(p.vars, c.varNum(v))
		fn := c.prog.FuncOf(v)
		if fn == nil || cfa.IsTransferVar(v) || slices.Contains(p.scope, fn) {
			continue
		}
		p.scope = append(p.scope, fn)
	}
	return p
}

// varNum returns the checker's number for variable name, numbering it
// on first sight. Program variables and the fresh variables of WP are
// finitely many per program (fresh names repeat across posts), so the
// numbering stays small for the checker's lifetime.
func (c *Checker) varNum(name string) int32 {
	n, ok := c.varIDs[name]
	if !ok {
		n = int32(len(c.varIDs))
		c.varIDs[name] = n
	}
	return n
}

// appendVars appends the numbers of f's variables to dst, repeats
// included.
func (c *Checker) appendVars(dst []int32, f logic.Formula) []int32 {
	switch f := f.(type) {
	case logic.Cmp:
		return c.appendTermVars(c.appendTermVars(dst, f.X), f.Y)
	case logic.Not:
		return c.appendVars(dst, f.F)
	case logic.And:
		for _, g := range f.Fs {
			dst = c.appendVars(dst, g)
		}
	case logic.Or:
		for _, g := range f.Fs {
			dst = c.appendVars(dst, g)
		}
	}
	return dst
}

func (c *Checker) appendTermVars(dst []int32, t logic.Term) []int32 {
	switch t := t.(type) {
	case logic.Var:
		return append(dst, c.varNum(t.Name))
	case logic.Bin:
		return c.appendTermVars(c.appendTermVars(dst, t.X), t.Y)
	case logic.Neg:
		return c.appendTermVars(dst, t.X)
	}
	return dst
}

// reach explores the abstract state space; it returns an abstract path
// to target (or nil), the work spent, and whether the budget ran out
// before the frontier was exhausted.
func (c *Checker) reach(ctx context.Context, target *cfa.Loc, preds []predicate, budget int) (cfa.Path, int, bool) {
	if budget <= 0 {
		return nil, 0, true
	}
	sp := obs.StartSpan(obs.PhaseReach)
	defer sp.End()
	work := 0
	x := c.startExploration(len(preds))
	for st := x.pop(); st != nil; st = x.pop() {
		if work >= budget || ctx.Err() != nil {
			// Budget or wall-clock deadline exhausted mid-search: report
			// "ran out" so the check answers Timeout, never a premature
			// Safe.
			return nil, work, true
		}
		if st.loc == target {
			return extractPath(st), work, false
		}
		work++
		mStatesExplored.Inc()
		for _, e := range st.loc.Out {
			work += c.expand(ctx, x, st, e, preds)
		}
	}
	return nil, work, false
}

// startExploration returns a new exploration holding only the root: the
// entry of main with every predicate unknown.
func (c *Checker) startExploration(npreds int) *exploration {
	x := newExploration(c.prog, c.opts.ExactCover, c.opts.DFS)
	root := absState{loc: c.prog.Funcs[c.prog.Main].Entry, vals: c.scratchVals(npreds)}
	x.covered(&root)
	kept := x.keep(&root)
	if c.reachRoot != nil {
		c.reachRoot(kept)
	}
	if c.keepExploration {
		c.kept = x // the plant: the checker pins the exploration
	}
	return x
}

// expand computes st's successor along e and keeps it unless it is
// abstractly infeasible or covered; it returns the post's work. Only a
// successor the cover set does not cover gets a state of its own.
func (c *Checker) expand(ctx context.Context, x *exploration, st *absState, e *cfa.Edge, preds []predicate) int {
	succ, work, ok := c.post(ctx, st, e, preds)
	if ok && !x.covered(&succ) {
		x.keep(&succ)
	}
	return work
}

// scratchVals returns the post's valuation scratch, n unknowns long.
func (c *Checker) scratchVals(n int) []int8 {
	if cap(c.vals) < n {
		c.vals = make([]int8, n)
	}
	c.vals = c.vals[:n]
	clear(c.vals)
	return c.vals
}

// postMemoEntry is one memoized abstract-post computation. vals pairs
// a predicate's content ID with its successor value, so an entry is
// valid for any predicate list: a lookup reuses every predicate it has
// seen before (under the same determined source conjuncts, captured by
// the memo key) and computes only the rest. Content keying is what lets
// the memo outlive a single Check — indices restart per check, but a
// predicate's meaning does not (cmd/slicerd keeps one Checker per
// program and reuses this memo across requests). A post computes a few
// predicates, so the pairs are a short slice searched in order.
type postMemoEntry struct {
	prunedKnown bool
	pruned      bool
	vals        []memoVal
}

// memoChunk is how many posts' values one chunk of memoVals holds.
const memoChunk = 256

// memoVal is one predicate's memoized successor value.
type memoVal struct {
	id uint32
	v  int8
}

// value returns the memoized value of the predicate with content ID id.
func (m *postMemoEntry) value(id uint32) (int8, bool) {
	for _, mv := range m.vals {
		if mv.id == id {
			return mv.v, true
		}
	}
	return 0, false
}

// freshStride separates the fresh-variable namespaces of the per-
// predicate WP computations so each predicate's formulas are identical
// regardless of which other predicates the memo already answered.
// A single WPOp mints at most a handful of fresh variables per havoc
// or nondet read, far below the stride. Predicate i's range starts at
// (i+1)*freshStride; the assume's conjuncts, converted once per edge,
// use the range below the first.
const freshStride = 4096

// memoKey identifies an abstract-post computation: the edge, the
// determined entries of the source valuation (exactly the literals the
// entailment precondition conjoins — undetermined predicates contribute
// nothing), and the localization scope (the set of functions on the
// stack decides which predicates are evaluated at all). Determined
// conjuncts are keyed by predicate content ID, not index, so a key
// stays valid across checks whose predicate lists differ (the predicate
// index space restarts per Check; its contents do not).
//
// The key is the edge ID, one integer per determined literal (2·ID+2
// when true, 2·ID+3 when false), all as uvarints, then a 0 byte and
// each sorted scope name followed by ','. Uvarints delimit themselves,
// no literal encodes as 0, and names contain neither byte, so distinct
// computations get distinct keys. The result aliases c.keyBuf.
func (c *Checker) memoKey(st *absState, e *cfa.Edge, preds []predicate) []byte {
	b := binary.AppendUvarint(c.keyBuf[:0], uint64(e.ID))
	for i, v := range st.vals {
		if v != 0 {
			lit := 2*uint64(preds[i].id) + 2
			if v < 0 {
				lit++
			}
			b = binary.AppendUvarint(b, lit)
		}
	}
	b = append(b, 0)
	if !c.opts.NoLocalize && len(st.stack) > 0 {
		names := c.scopeBuf[:0]
		for _, call := range st.stack {
			names = append(names, call.Src.Fn.Name)
		}
		slices.Sort(names)
		for _, n := range names {
			b = append(append(b, n...), ',')
		}
		c.scopeBuf = names
	}
	c.keyBuf = b
	return b
}

// post computes the abstract successor of st via edge e; ok is false
// when the edge is abstractly infeasible. The successor is returned by
// value and is not yet kept: its valuation lives in the checker's
// scratch (c.vals) and, on a call, its stack in c.stack, until
// exploration.keep copies them. The work counter counts logical
// solver queries — the same number whether they were answered from the
// memo, the cache or the frame rule, so budgets behave identically
// across configurations.
//
// The post runs in this order: the memo lookup, on an assume the prune
// query, then each predicate's entailments; the cover check follows in
// expand, before any successor is built.
//
// Each query is decided by three rules before the solver sees it. All
// are exact whenever the source valuation is satisfiable, which holds
// by induction unless a solver query answered Unknown: the root is
// true, an assignment's image of a non-empty set is non-empty, and an
// assume that is not pruned has a satisfiable precondition (its prune
// query is satisfiable, and the literals left out of that query are
// satisfiable and share no variable with it). With an unsatisfiable
// source the state is empty, so any successor valuation is sound.
//   - Frame rule: a p the source determines keeps its value across an
//     assume, which only removes states, and across any other edge
//     whose WP leaves p unchanged. (An undetermined p is left to the
//     cone: the source may entail it without naming it.)
//   - Cone: an entailment query conjoins wp(±p) only with the
//     precondition's conjuncts variable-connected to it, and a prune
//     query conjoins the assume only with the literals connected to
//     it. The rest share no variable with the query and are jointly
//     satisfiable, so dropping them leaves its satisfiability
//     unchanged.
//   - Components: what is left is decided one variable-disjoint
//     component at a time (decide), each through the solver cache on
//     its own. A conjunction of parts that share no variable is Unsat
//     exactly when one part is, and the post reads only Unsat.
func (c *Checker) post(ctx context.Context, st *absState, e *cfa.Edge, preds []predicate) (succ absState, work int, ok bool) {
	mAbstractPosts.Inc()

	switch e.Op.Kind {
	case cfa.OpCall:
		callee := c.prog.Funcs[e.Op.Callee]
		if callee == nil {
			return succ, work, false
		}
		c.stack = append(append(c.stack[:0], st.stack...), e)
		return absState{loc: callee.Entry, stack: c.stack, vals: st.vals, parent: st, via: e}, work, true
	case cfa.OpReturn:
		if len(st.stack) == 0 {
			return succ, work, false // program exit: never the target
		}
		n := len(st.stack) - 1
		return absState{loc: st.stack[n].Dst, stack: st.stack[:n:n], vals: st.vals, parent: st, via: e}, work, true
	}

	var memo *postMemoEntry
	if !c.opts.DisablePostMemo {
		key := c.memoKey(st, e, preds)
		i, ok := c.postMemo[string(key)]
		if ok {
			c.memoHits++
		} else {
			i = int32(len(c.memos))
			c.postMemo[string(key)] = i
			c.memos = append(c.memos, postMemoEntry{})
		}
		memo = &c.memos[i]
	}

	// The precondition is built on first use: a post the memo answers
	// in full never needs it.
	var pre *entailPre
	precondition := func() *entailPre {
		if pre == nil {
			pre = c.newEntailPre(preds, st.vals, e)
		}
		return pre
	}

	if e.Op.Kind == cfa.OpAssume {
		// Prune when the state cannot take the branch.
		work++
		if memo == nil || !memo.prunedKnown {
			pruned := c.prune(ctx, precondition())
			if c.checkPrune != nil {
				c.checkPrune(st, e, preds, pruned)
			}
			if memo != nil {
				memo.prunedKnown, memo.pruned = true, pruned
			} else if pruned {
				return succ, work, false
			}
		}
		if memo != nil && memo.pruned {
			return succ, work, false
		}
	}

	// New valuation via WP entailment per predicate. Localization:
	// predicates scoped to functions not on the successor's stack stay
	// unknown and cost no solver queries. Predicates already covered by
	// the memo keep their cached value; the rest are computed here.
	entail := func(i int) (v int8) {
		// Contain panics per task: a crashed entailment leaves the
		// predicate unknown (0), which only weakens the abstraction —
		// sound — instead of taking the enclosing Check down.
		// WorkerPanic faults exercise exactly this path
		// (docs/ROBUSTNESS.md).
		defer func() {
			if r := recover(); r != nil {
				mRecoveredPanics.Inc()
				v = 0
			}
		}()
		if faults.Should(faults.WorkerPanic) {
			panic("faults: injected worker panic")
		}
		// Frame rule: an assume only removes states, and any other edge
		// whose WP leaves p unchanged keeps it, so a determined p keeps
		// its value.
		if e.Op.Kind == cfa.OpAssume && (st.vals[i] != 0 || c.copyUndetermined) {
			mFrameSkips.Inc()
			return st.vals[i]
		}
		op := c.compiledEdge(e).op
		fresh := (i + 1) * freshStride
		p := &preds[i]
		wpP := op.WP(p.f, &fresh)
		if st.vals[i] != 0 && logic.Equal(wpP, p.f) {
			mFrameSkips.Inc()
			return st.vals[i]
		}
		wpNotP := op.WP(p.neg, &fresh)
		switch {
		case c.decide(ctx, precondition(), wpNotP, true) == smt.StatusUnsat:
			return 1 // every post-state satisfies p
		case c.decide(ctx, precondition(), wpP, false) == smt.StatusUnsat:
			return -1
		}
		return 0
	}
	vals := c.scratchVals(len(preds))
	computed := c.computed[:0]
	for i := range preds {
		p := &preds[i]
		if !c.opts.NoLocalize && !predInScope(p, e.Dst, st.stack) {
			continue // unknown
		}
		work += 2
		if memo != nil {
			if v, ok := memo.value(p.id); ok {
				vals[i] = v
				continue // memoized
			}
		}
		vals[i] = entail(i)
		computed = append(computed, memoVal{p.id, vals[i]})
		if c.checkEntail != nil {
			c.checkEntail(st, e, preds, i, vals[i])
		}
	}
	switch {
	case memo == nil || len(computed) == 0:
	case len(memo.vals) == 0:
		memo.vals = carve(&c.memoVals, computed, memoChunk)
	default:
		memo.vals = append(memo.vals, computed...)
	}
	c.computed = computed
	mPostEntailsMax.SetMax(int64(len(computed)))
	return absState{loc: e.Dst, stack: st.stack, vals: vals, parent: st, via: e}, work, true
}

// undecided marks a precondition component whose status this post has
// not needed yet.
const undecided smt.Status = -1

// unionFind is a union-find over variable numbers whose slices its
// owner reuses: a number is a node of the current forest when its mark
// equals epoch, so starting a new forest costs one increment.
type unionFind struct {
	up    []int32
	mark  []uint32
	epoch uint32
}

func (u *unionFind) reset() {
	u.epoch++
	if u.epoch == 0 { // wrapped: old marks could match again
		clear(u.mark)
		u.epoch = 1
	}
}

func (u *unionFind) has(v int32) bool {
	return v >= 0 && int(v) < len(u.mark) && u.mark[v] == u.epoch
}

// add makes v a node of the current forest and reports whether it was
// not one yet.
func (u *unionFind) add(v int32) bool {
	for int(v) >= len(u.up) {
		u.up = append(u.up, 0)
		u.mark = append(u.mark, 0)
	}
	if u.mark[v] == u.epoch {
		return false
	}
	u.mark[v], u.up[v] = u.epoch, v
	return true
}

func (u *unionFind) find(v int32) int32 {
	for u.up[v] != v {
		u.up[v] = u.up[u.up[v]]
		v = u.up[v]
	}
	return v
}

func (u *unionFind) union(a, b int32) {
	if ra, rb := u.find(a), u.find(b); ra != rb {
		u.up[rb] = ra
	}
}

// entailPre is the precondition of one post's queries as a conjunct
// list: the source's lits determined literals, then on an assume edge
// the assume's conjuncts. comp[j] is conjunct j's variable-connected
// component, named by its union-find root, or -1 when it has no
// variables; status holds each root's component status once this post
// has decided it (preStatus). The checker owns one entailPre and
// rebuilds it for each post.
type entailPre struct {
	unionFind
	fs     []logic.Formula
	lits   int
	comp   []int32
	status []smt.Status
	buf    []logic.Formula // preStatus's conjuncts
}

// newEntailPre rebuilds c.pre from the source's determined literals
// and, on an assume edge, the assume's conjuncts.
func (c *Checker) newEntailPre(preds []predicate, vals []int8, e *cfa.Edge) *entailPre {
	pre := &c.pre
	pre.reset()
	pre.fs, pre.comp = pre.fs[:0], pre.comp[:0]
	for i, v := range vals {
		switch v {
		case 1:
			pre.add(preds[i].f, preds[i].vars)
		case -1:
			pre.add(preds[i].neg, preds[i].vars)
		}
	}
	pre.lits = len(pre.fs)
	if e.Op.Kind == cfa.OpAssume {
		ce := c.compiledEdge(e)
		for k, f := range ce.guard {
			pre.add(f, ce.guardVars[k])
		}
	}
	for j, r := range pre.comp {
		if r >= 0 {
			pre.comp[j] = pre.find(r)
		}
	}
	return pre
}

// add appends conjunct f, whose variables are vars, joining their
// components.
func (pre *entailPre) add(f logic.Formula, vars []int32) {
	r := int32(-1)
	for _, v := range vars {
		if pre.unionFind.add(v) {
			for int(v) >= len(pre.status) {
				pre.status = append(pre.status, undecided)
			}
			pre.status[v] = undecided
		}
		if r < 0 {
			r = v
		} else {
			pre.union(r, v)
		}
	}
	pre.fs = append(pre.fs, f)
	pre.comp = append(pre.comp, r)
}

// repeats returns the component of the assume conjunct that equals w,
// if one with variables does. On an assume edge wp(±p) repeats the
// assume's conjuncts, and A ∧ A is A.
func (pre *entailPre) repeats(w logic.Formula) (int32, bool) {
	for j := pre.lits; j < len(pre.fs); j++ {
		if pre.comp[j] >= 0 && logic.Equal(w, pre.fs[j]) {
			return pre.comp[j], true
		}
	}
	return 0, false
}

// preStatus returns the status of the precondition component rooted
// at r, deciding it the first time this post asks.
func (c *Checker) preStatus(ctx context.Context, pre *entailPre, r int32) smt.Status {
	if st := pre.status[r]; st != undecided {
		return st
	}
	fs := pre.buf[:0]
	for j, f := range pre.fs {
		if pre.comp[j] != r {
			continue
		}
		if c.dropGuardLiteral && j < pre.lits && len(fs) == 0 {
			continue // the plant: leave out one connected literal
		}
		fs = append(fs, f)
	}
	pre.buf = fs
	st := c.solve(ctx, conjunction(fs))
	pre.status[r] = st.Status
	return st.Status
}

// prune reports whether an assume's prune query is Unsat: the assume's
// conjuncts and the determined literals variable-connected to them,
// decided one component at a time. A variable-free conjunct is a
// component of its own.
func (c *Checker) prune(ctx context.Context, pre *entailPre) bool {
	q := &c.split
	q.reset()
	for _, r := range pre.comp[pre.lits:] {
		if r >= 0 {
			q.add(r)
		}
	}
	left := 0
	for _, r := range pre.comp[:pre.lits] {
		if !q.has(r) {
			left++
		}
	}
	mConeDropped.Add(int64(left))
	for j := pre.lits; j < len(pre.fs); j++ {
		var st smt.Status
		if r := pre.comp[j]; r >= 0 {
			st = c.preStatus(ctx, pre, r)
		} else {
			st = c.solve(ctx, pre.fs[j]).Status
		}
		if st == smt.StatusUnsat {
			return true
		}
	}
	return false
}

// querySplit is the scratch of one query's split into components: a
// union-find whose nodes are precondition components (by root) and
// the variables outside the precondition, and the query's WP
// conjuncts with their nodes. The checker owns one and reuses it.
type querySplit struct {
	unionFind
	one   [1]logic.Formula
	ws    []logic.Formula // WP conjuncts the precondition does not repeat
	roots []int32         // each one's component, -1 when variable-free
	dups  []int32         // components of the conjuncts it repeats
	vars  []int32
	fs    []logic.Formula // one component's conjuncts
}

// decide decides the conjunction of wpF with the precondition
// conjuncts variable-connected to it, one variable-disjoint component
// at a time: the query is Unsat when one component is, Sat when all
// are, and Unknown otherwise. Each component goes through the solver
// cache on its own, so a predicate's half of the query hits the cache
// whatever the guard beside it. A component made only of precondition
// conjuncts (on an assume edge, the assume's, which wp(±p) repeats) is
// read from the precondition's statuses, decided at most once per
// post. countCone adds the conjuncts the cone left out to
// cegar_post_cone_dropped_total.
func (c *Checker) decide(ctx context.Context, pre *entailPre, wpF logic.Formula, countCone bool) smt.Status {
	q := &c.split
	q.reset()
	q.ws, q.roots, q.dups = q.ws[:0], q.roots[:0], q.dups[:0]
	conj := q.one[:]
	conj[0] = wpF
	if a, ok := wpF.(logic.And); ok {
		conj = a.Fs
	}
	for _, w := range conj {
		if r, ok := pre.repeats(w); ok {
			q.add(r)
			q.dups = append(q.dups, r)
			continue
		}
		root := int32(-1)
		q.vars = c.appendVars(q.vars[:0], w)
		for _, v := range q.vars {
			n := v
			if pre.has(v) {
				n = pre.find(v)
			}
			q.add(n)
			if root < 0 {
				root = n
			} else {
				q.union(root, n)
			}
		}
		q.ws = append(q.ws, w)
		q.roots = append(q.roots, root)
	}
	for k, r := range q.roots {
		if r >= 0 {
			q.roots[k] = q.find(r)
		}
	}
	if countCone {
		left := len(pre.fs)
		for _, r := range pre.comp {
			if q.has(r) {
				left--
			}
		}
		mConeDropped.Add(int64(left))
	}

	unknown := false
	for _, r := range q.dups {
		if slices.Contains(q.roots, q.find(r)) {
			continue // a WP conjunct joins this component
		}
		switch c.preStatus(ctx, pre, r) {
		case smt.StatusUnsat:
			return smt.StatusUnsat
		case smt.StatusUnknown:
			unknown = true
		}
	}
	last := -1
	for k, r := range q.roots {
		if r < 0 || slices.Index(q.roots, r) == k {
			last = k
		}
	}
	for k, r := range q.roots {
		if r >= 0 && slices.Index(q.roots, r) < k {
			continue // decided with the component's first conjunct
		}
		if c.skipLastComponent && k == last {
			continue // the plant: called Sat without deciding it
		}
		fs := q.fs[:0]
		if r < 0 {
			fs = append(fs, q.ws[k])
		} else {
			for j, f := range pre.fs {
				if cr := pre.comp[j]; q.has(cr) && q.find(cr) == r {
					fs = append(fs, f)
				}
			}
			if c.dropConnected && len(fs) > 0 {
				fs = fs[1:] // the plant: leave out one connected conjunct
			}
			for k2 := k; k2 < len(q.ws); k2++ {
				if q.roots[k2] == r {
					fs = append(fs, q.ws[k2])
				}
			}
		}
		q.fs = fs
		switch c.solve(ctx, conjunction(fs)).Status {
		case smt.StatusUnsat:
			return smt.StatusUnsat
		case smt.StatusUnknown:
			unknown = true
		}
	}
	if unknown {
		return smt.StatusUnknown
	}
	return smt.StatusSat
}

// conjunction is the conjunction of the non-empty fs without copying
// them (they are flat: WP results and precondition conjuncts are
// built with logic.MkAnd). The caller's scratch backs it, which is
// safe because a solve keeps nothing of its formula.
func conjunction(fs []logic.Formula) logic.Formula {
	if len(fs) == 1 {
		return fs[0]
	}
	return logic.And{Fs: fs}
}

// predInScope reports whether predicate p may be evaluated at a state
// whose location is loc with the given stack: every function whose
// locals the predicate mentions must be the current function or on the
// stack. Global-only predicates are always in scope.
func predInScope(p *predicate, loc *cfa.Loc, stack []*cfa.Edge) bool {
	for _, fn := range p.scope {
		if loc.Fn == fn {
			continue
		}
		onStack := false
		for _, call := range stack {
			if call.Src.Fn == fn {
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

// compiledEdge is what the post reads of an edge, built once per
// checker: its operation converted for WP and, on an assume, the
// assume's conjuncts (its WP of true, at fresh base 0) with the
// numbers of their variables.
type compiledEdge struct {
	op        *wp.CompiledOp
	guard     []logic.Formula
	guardVars [][]int32
}

// compiledEdge returns what the post reads of e. A slot is filled only
// once its conversion returned, so a conversion that panics is
// retried, and contained, wherever the next post needs it.
func (c *Checker) compiledEdge(e *cfa.Edge) *compiledEdge {
	ce := c.edges[e.ID]
	if ce == nil {
		ce = &compiledEdge{op: wp.CompileOp(e.Op, c.slicer.Alias, c.slicer.Addrs)}
		if e.Op.Kind == cfa.OpAssume {
			fresh := 0
			guard := ce.op.WP(logic.True, &fresh)
			ce.guard = []logic.Formula{guard}
			if a, ok := guard.(logic.And); ok {
				ce.guard = a.Fs
			}
			for _, f := range ce.guard {
				ce.guardVars = append(ce.guardVars, c.appendVars(nil, f))
			}
		}
		c.edges[e.ID] = ce
	}
	return ce
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

// refine mines new predicates from the infeasible slice's refutation
// ("the refinement algorithm analyzes the output of the path slicer to
// find why a path is infeasible" — §1, after [16]). It adds two kinds:
//
//  1. The atoms of a minimized unsat core of the slice's trace formula,
//     unversioned: the operations that actually cause the
//     infeasibility, per the parsimonious-abstraction idea the paper
//     cites ([16], "Abstractions from proofs"). Each atom is stored in
//     one orientation of its ± pair (orient), so p and ¬p are one
//     predicate.
//  2. Constant facts `x == c` established along the slice, but only for
//     a variable x that one of those core atoms names. This recovers
//     the facts an interpolating prover would find for increment
//     chains without guessing constants of variables the refutation
//     never mentions.
//
// When the refinement solve does not answer Unsat (deadline, limit or
// injected fault), it mines the whole trace formula instead and keeps
// every constant fact — a superset, so refinement can only get more
// predicates, never wrong ones.
func (c *Checker) refine(ctx context.Context, slice cfa.Path, preds []predicate, seen map[string]bool) ([]predicate, bool) {
	sp := obs.StartSpan(obs.PhaseRefine)
	defer sp.End()
	grew := false
	add := func(g logic.Cmp) {
		if len(preds) >= c.opts.MaxPreds {
			return
		}
		key := g.String()
		if seen[key] {
			return
		}
		seen[key] = true
		preds = append(preds, c.newPredicate(g, key))
		grew = true
	}
	enc := wp.NewTraceEncoder(c.slicer.Prog, c.slicer.Alias, c.slicer.Addrs)
	solver := smt.NewSolverWithLimits(c.opts.SolverLimits)
	for _, op := range slice.Ops() {
		solver.Assert(enc.EncodeOp(op))
	}
	var mineFrom []logic.Formula
	fromCore := false
	if r := solver.CheckCtx(ctx); r.Status == smt.StatusUnsat && !c.refineUnknown {
		mineFrom, _ = solver.UnsatCore(ctx)
		fromCore = true
	} else {
		mineFrom = []logic.Formula{c.slicer.TraceFormula(slice)}
	}
	named := make(map[string]struct{}) // the variables the mined core atoms name
	for _, f := range mineFrom {
		for _, a := range collectAtoms(f) {
			g, ok := unversion(a)
			if !ok {
				continue
			}
			if fromCore {
				logic.TermVars(g.X, named)
				logic.TermVars(g.Y, named)
			}
			add(orient(g))
		}
	}
	c.constFacts(slice, func(x string, v int64) {
		if _, ok := named[x]; ok || !fromCore || c.eagerConstants {
			add(constFact(x, v))
		}
	})
	if c.onRefine != nil {
		c.onRefine(fromCore, named, slice, preds)
	}
	return preds, grew
}

// constFacts propagates known constants forward through the slice's
// assignments and calls fact for each constant v an assignment to x
// produces.
func (c *Checker) constFacts(slice cfa.Path, fact func(x string, v int64)) {
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
		v, ok := evalConst(op.RHS, consts)
		if !ok {
			delete(consts, op.LHS.Var)
			continue
		}
		consts[op.LHS.Var] = v
		fact(op.LHS.Var, v)
	}
}

// constFact is the predicate x == v.
func constFact(x string, v int64) logic.Cmp {
	return logic.Cmp{Op: logic.CmpEq, X: logic.Var{Name: x}, Y: logic.Const{V: v}}
}

// orient returns the member of a's ± pair that refinement stores: an
// atom with !=, > or >= becomes its negation with ==, <= or <. Over
// the integers a and ¬a split the states identically, so the Cartesian
// abstraction over {a} equals the one over {a, ¬a}, and storing one
// orientation loses nothing.
func orient(a logic.Cmp) logic.Cmp {
	switch a.Op {
	case logic.CmpNe, logic.CmpGt, logic.CmpGe:
		a.Op = a.Op.Negated()
	}
	return a
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

// unversion strips SSA "@k" suffixes from an atom's variables in one
// walk. It rejects (ok false) a ground atom, useless as a predicate,
// and one that mentions a solver-internal variable ($in, $u, $f, $h).
// Subterms without a versioned variable are shared, not copied.
func unversion(a logic.Cmp) (g logic.Cmp, ok bool) {
	vars := 0
	x, _ := unversionTerm(a.X, &vars)
	y, _ := unversionTerm(a.Y, &vars)
	if x == nil || y == nil || vars == 0 {
		return g, false
	}
	return logic.Cmp{Op: a.Op, X: x, Y: y}, true
}

// unversionTerm is unversion on a term: it returns the unversioned
// term, nil when t mentions a solver-internal variable, and whether
// the term changed; vars counts t's variables.
func unversionTerm(t logic.Term, vars *int) (logic.Term, bool) {
	switch u := t.(type) {
	case logic.Var:
		if strings.HasPrefix(u.Name, "$") {
			return nil, false
		}
		*vars++
		if i := strings.LastIndexByte(u.Name, '@'); i >= 0 {
			return logic.Var{Name: u.Name[:i]}, true
		}
	case logic.Bin:
		x, cx := unversionTerm(u.X, vars)
		y, cy := unversionTerm(u.Y, vars)
		if x == nil || y == nil {
			return nil, false
		}
		if cx || cy {
			return logic.Bin{Op: u.Op, X: x, Y: y}, true
		}
	case logic.Neg:
		x, cx := unversionTerm(u.X, vars)
		if x == nil {
			return nil, false
		}
		if cx {
			return logic.Neg{X: x}, true
		}
	}
	return t, false
}
