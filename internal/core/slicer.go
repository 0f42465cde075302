// Package core implements Algorithm PathSlice, the primary contribution
// of "Path Slicing" (Jhala & Majumdar, PLDI 2005).
//
// Given a (possibly infeasible) program path π to a target location,
// PathSlice computes a subsequence of π's edges — a path slice — that is
//
//   - sound: if the slice's trace is infeasible, π is infeasible, and
//   - complete: if the slice's trace is feasible, then every state that
//     can execute it either reaches the target location along some
//     (possibly different) program path, or diverges (§3.2).
//
// The algorithm (Figure 1 / Algorithm 1) iterates backward over the
// path, maintaining the set of live lvalues and the step location (the
// source of the last edge taken), and decides each edge with the Take
// predicate of Figure 3, generalized to pointers (§3.4) and procedure
// calls (§4). The optimizations of §4.2 — stopping as soon as the
// accumulated slice constraints are unsatisfiable, and skipping
// irrelevant guard chains on deep call stacks — are available through
// Options.
//
// Two scaling layers target the paper's Figure 6 regime (gcc-class
// subjects: ~80k-block traces over ~2000 procedures):
//
//   - Options.Summaries memoizes context-keyed callee frame summaries
//     (package summ): the first walk of a (frame segment, projected
//     live set) context records its per-edge decisions and live-set
//     transfer; every repeat costs a lookup instead of re-running the
//     Take predicate edge by edge.
//   - The walk reads its input through the PathSource interface, so a
//     trace can stream from a cfa.PathReader trace file with only a
//     bounded window of frames resident (SliceStream), instead of a
//     fully materialized cfa.Path.
package core

import (
	"context"
	"fmt"
	"time"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/dataflow"
	"pathslice/internal/lang/ast"
	"pathslice/internal/logic"
	"pathslice/internal/modref"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
	"pathslice/internal/summ"
	"pathslice/internal/wp"
)

// Registry metrics for the slicer (see docs/OBSERVABILITY.md).
var (
	mSlices       = obs.Default().Counter("pathslice_slices_total")
	mInputEdges   = obs.Default().Counter("pathslice_input_edges_total")
	mSliceEdges   = obs.Default().Counter("pathslice_slice_edges_total")
	mEarlyStops   = obs.Default().Counter("pathslice_early_stops_total")
	mRatioPercent = obs.Default().Histogram("pathslice_slice_ratio_percent")
	mSliceNS      = obs.Default().Histogram("pathslice_slice_ns")

	// mDegraded counts slices that fell back to a conservative
	// over-approximation (deadline expiry or an analysis query that
	// could not be answered). mRecoveredPanics is the process-wide
	// recovered-panic counter shared with the other API boundaries
	// (the registry returns the same handle for the same name).
	mDegraded        = obs.Default().Counter("pathslice_degraded_total")
	mRecoveredPanics = obs.Default().Counter("recovered_panics_total")
)

// Options configures the slicer.
type Options struct {
	// EarlyUnsatStop enables the §4.2 "unsatisfiable path slices"
	// optimization: every taken operation is asserted (backward SSA) to
	// an incremental decision procedure, and slicing stops at the first
	// unsatisfiable prefix, since adding more operations cannot make it
	// satisfiable again. The solver is genuinely incremental: each
	// check pays only for the operations asserted since the last one
	// (warm-started simplex, persistent interval facts — see
	// docs/PERFORMANCE.md), so checking after every assume
	// (CheckEvery=1) costs O(delta) per check rather than re-solving
	// the whole growing prefix.
	EarlyUnsatStop bool
	// CheckEvery controls how many taken assume edges elapse between
	// satisfiability checks when EarlyUnsatStop is set (default 1).
	CheckEvery int
	// SkipFunctions enables the §4.2 "skipping functions" optimization:
	// when an edge is not taken and no live lvalue can be written
	// between the enclosing function's entry and the edge, the rest of
	// the frame (its guard chain) is skipped. The resulting slice is
	// still sound but no longer guaranteed complete.
	SkipFunctions bool
	// Summaries enables context-keyed callee frame summaries (package
	// summ, docs/PERFORMANCE.md): repeated calls to the same procedure
	// under the same projected live set cost O(summary) instead of a
	// full frame walk. The summarized slice is bit-identical to the
	// plain walk's (same kept edges, same Stats counters) — the root
	// summary differential gate and the oracle campaign enforce this.
	// Ignored when RecordTrace is set (the annotated trace needs every
	// edge examined for real).
	Summaries bool
	// SolverLimits bounds the incremental solver.
	SolverLimits smt.Limits
	// RecordTrace captures the live set and step location at every
	// point of the backward pass (Result.Trace) — the annotations of
	// the paper's Figures 1(C) and 2(B). Costs a live-set copy per
	// edge; leave off in production runs.
	RecordTrace bool
	// Unsound deliberately weakens one Take rule (test-only). The
	// oracle suite flips these modes on to prove it would catch a real
	// soundness or completeness regression in the slicer; production
	// callers must leave it at UnsoundNone.
	Unsound UnsoundMode
}

// UnsoundMode selects a deliberately broken variant of the Take
// predicate for oracle self-tests. Each mode drops exactly one
// relevance rule that Theorem 1 depends on.
type UnsoundMode int

const (
	// UnsoundNone is the correct slicer.
	UnsoundNone UnsoundMode = iota
	// UnsoundDropGuards skips the By test on branch assumes: a guard
	// that doesn't write live lvalues is dropped even when the branch
	// point could bypass the step location.
	UnsoundDropGuards
	// UnsoundDropAliasedWrites takes an assignment only when the
	// written lvalue is syntactically live, ignoring may-alias writes
	// through pointers.
	UnsoundDropAliasedWrites
	// UnsoundSkipCallees never takes a return edge, skipping every
	// callee frame regardless of its mod set.
	UnsoundSkipCallees
	// UnsoundStaleSummaries reuses a memoized frame summary across
	// differing live sets (the summ.Options.StaleReuse planted bug):
	// the summary key drops its live-context half, so the first
	// context recorded for a segment answers every later call site.
	// Only meaningful with Options.Summaries; the oracle campaign's
	// summary-differential pillar must catch it.
	UnsoundStaleSummaries
	// UnsoundDropRacyEdges makes the concurrent walker (ConcSlice)
	// ignore conflicting-access racy edges: no cross-thread live-set
	// transfer happens, so a write in one thread that feeds a read in
	// another is dropped from the slice. The concurrent oracle campaign
	// must catch it. Sequential slicing is unaffected.
	UnsoundDropRacyEdges
	// UnsoundStaleThreadLiveSet makes the concurrent walker reuse the
	// live-set snapshot captured at the first cross-thread merge from a
	// given thread for every later merge from that thread, missing
	// demands that accumulate as its backward walk proceeds. The
	// concurrent oracle campaign must catch it. Sequential slicing is
	// unaffected.
	UnsoundStaleThreadLiveSet
)

// TracePoint is the slicer's state when it considered one path edge:
// the live lvalues and step location *before* processing the edge (the
// values shown to the right of each edge in Fig. 1(C)), and the
// decision taken.
type TracePoint struct {
	Index    int // index into the input path
	Live     cfa.LvalSet
	StepLoc  *cfa.Loc
	Taken    bool
	Skipped  bool // reached via a frame/guard-chain skip, not examined
	EdgeRepr string
}

// Stats describes one slicing run.
type Stats struct {
	InputEdges  int
	SliceEdges  int
	InputBlocks int
	SliceBlocks int

	TakenAssign, TakenAssume, TakenCall, TakenReturn int
	TakenSpawn, TakenJoin                            int // concurrent traces only
	SkippedFrames                                    int // frames skipped at an untaken return
	SkippedGuardChains                               int // §4.2 function-skipping jumps
	SolverChecks                                     int
	EarlyStopped                                     bool
	// SummaryHits/SummaryMisses count frame-summary lookups at taken
	// return edges (Options.Summaries; see docs/PERFORMANCE.md).
	SummaryHits   int
	SummaryMisses int
	// WalkedEdges counts the edges whose Take decision was actually
	// computed by the walker — as opposed to replayed from a frame
	// summary or bypassed by a skip jump. It is the deterministic
	// measure of summarization: on a plain walk it tracks the input
	// length; with a warm memo it collapses to the inter-call skeleton
	// plus one recording pass per distinct context. `make bench-diff`
	// gates the gcc-class sublinearity claim on this counter, not on
	// wall time (docs/PERFORMANCE.md).
	WalkedEdges int
}

// Ratio returns slice size as a fraction of the input size (in edges).
func (s Stats) Ratio() float64 {
	if s.InputEdges == 0 {
		return 0
	}
	return float64(s.SliceEdges) / float64(s.InputEdges)
}

// Result is the outcome of slicing one path.
type Result struct {
	// Slice is the computed path slice (a subsequence of the input).
	Slice cfa.Path
	// Taken[i] reports whether input edge i is in the slice.
	Taken []bool
	// Live is the live lvalue set at the point slicing stopped (the
	// start of the path unless EarlyStopped).
	Live cfa.LvalSet
	// KnownInfeasible is set when the early-stop optimization proved
	// the slice trace unsatisfiable during slicing.
	KnownInfeasible bool
	// Degraded is set when the slicer fell back to a conservative
	// answer at some step: the context deadline expired (every
	// remaining edge was kept), or a relevance query could not be
	// answered (the edge was kept). A degraded slice is still sound —
	// it is a superset of the precise slice — but may be larger than
	// necessary (see docs/ROBUSTNESS.md).
	Degraded bool
	// Trace is the per-edge analysis record (only with
	// Options.RecordTrace), in backward processing order.
	Trace []TracePoint
	Stats Stats
}

// PathSource is the walk's view of its input: random access to edges
// and the §4 call structure. A materialized cfa.Path is adapted
// internally (SliceCtx); a cfa.PathReader streams the same interface
// from a trace file with only a bounded window of frames resident
// (SliceStream). Edge returns nil on a read failure, with the cause in
// Err.
type PathSource interface {
	Len() int
	Edge(i int) *cfa.Edge
	CallIdx(i int) int
	Err() error
}

// pathAdapter adapts a validated, materialized cfa.Path.
type pathAdapter struct {
	p       cfa.Path
	callIdx []int
}

func (a *pathAdapter) Len() int             { return len(a.p) }
func (a *pathAdapter) Edge(i int) *cfa.Edge { return a.p[i] }
func (a *pathAdapter) CallIdx(i int) int    { return a.callIdx[i] }
func (a *pathAdapter) Err() error           { return nil }

// Slicer holds the program and the precomputed analyses PathSlice
// queries (alias, mod-ref, WrBt/By), plus the frame-summary memo when
// Options.Summaries is set. Build one per program and reuse it across
// paths: the analyses and the summary table are cached.
type Slicer struct {
	Prog  *cfa.Program
	Alias *alias.Info
	Mods  *modref.Info
	DF    *dataflow.Info
	Addrs *wp.AddrMap
	Summ  *summ.Table // nil unless Options.Summaries
	Opts  Options
}

// New builds a Slicer with default options, running all required
// analyses.
func New(prog *cfa.Program) *Slicer {
	return NewWithOptions(prog, Options{})
}

// NewWithOptions builds a Slicer with the given options.
func NewWithOptions(prog *cfa.Program, opts Options) *Slicer {
	al := alias.Analyze(prog)
	mr := modref.Analyze(prog, al)
	df := dataflow.Analyze(prog, al, mr)
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 1
	}
	s := &Slicer{
		Prog:  prog,
		Alias: al,
		Mods:  mr,
		DF:    df,
		Addrs: wp.NewAddrMap(prog),
		Opts:  opts,
	}
	if opts.Summaries && !opts.RecordTrace {
		s.Summ = summ.NewTable(al, mr, summ.Options{
			StaleReuse: opts.Unsound == UnsoundStaleSummaries,
		})
	}
	return s
}

// Slice runs Algorithm PathSlice on path (which must be a valid program
// path ending at the location of interest).
func (s *Slicer) Slice(path cfa.Path) (*Result, error) {
	return s.SliceCtx(context.Background(), path)
}

// SliceCtx is Slice under a context. When the context is cancelled or
// its deadline expires mid-pass, the slicer does not abort: it
// conservatively keeps every not-yet-examined edge and returns a
// Degraded result, which is still a sound slice (a superset of the
// precise one — soundness only shrinks when edges are dropped, §3.2).
// A panic escaping the analysis layers is contained here and converted
// to an error, so a shared Slicer cannot take down a caller's worker
// pool.
func (s *Slicer) SliceCtx(ctx context.Context, path cfa.Path) (*Result, error) {
	if verr := path.Validate(s.Prog); verr != nil {
		return nil, fmt.Errorf("core: %w", verr)
	}
	return s.SliceSource(ctx, &pathAdapter{p: path, callIdx: path.CallIdx()})
}

// SliceStream slices a trace streamed from a trace file. The reader
// has already validated the path (cfa.OpenTraceFile); the walk holds
// only the reader's bounded frame window plus O(slice) kept edges
// resident, so memory is independent of trace length. The result is
// identical to SliceCtx over the materialized path.
func (s *Slicer) SliceStream(ctx context.Context, r *cfa.PathReader) (*Result, error) {
	return s.SliceSource(ctx, r)
}

// SliceSource runs the backward walk over any PathSource. The source
// must be a valid program path (SliceCtx validates; cfa.OpenTraceFile
// validates trace files at open).
func (s *Slicer) SliceSource(ctx context.Context, src PathSource) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.StartSpan(obs.PhasePathSlice)
	start := time.Now()
	defer func() {
		mSliceNS.ObserveDuration(time.Since(start))
		sp.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			mRecoveredPanics.Inc()
			res, err = nil, fmt.Errorf("core: panic during slicing: %v", r)
		}
	}()
	n := src.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: cfa: empty path")
	}
	w := &walker{s: s, src: src, n: n}
	return w.run(ctx)
}

// ---------------------------------------------------------------------------
// The backward walk

// walker is the state of one backward pass. It is built per slice call
// and never shared, so a Slicer stays safe for concurrent use.
type walker struct {
	s   *Slicer
	src PathSource
	n   int

	res    *Result
	live   cfa.LvalSet
	pcStep *cfa.Loc
	i      int

	// Early-unsat-stop state (Options.EarlyUnsatStop).
	enc               *wp.TraceEncoder
	solver            *smt.Solver
	assumesSinceCheck int

	// Active frame-summary recordings, outermost first (innermost at
	// the end; frames nest). segIDs is the segment-key scratch buffer.
	recs   []*frameRec
	segIDs []int32
}

// frameRec records one in-progress frame summary (a table miss being
// walked for real). Its dec vector and live-transfer sets are filled
// in as the walk proceeds and stored into the table when the walk
// crosses the frame's call edge.
type frameRec struct {
	lo, hi            int
	callee            string
	segHash, liveHash uint64
	edgeIDs           []int32
	proj              []cfa.Lvalue
	dec               []summ.Decision
	kills, adds       cfa.LvalSet
	base              Stats
	invalid           bool // a degraded query happened inside: do not store
}

func (w *walker) run(ctx context.Context) (*Result, error) {
	s := w.s
	w.res = &Result{
		Taken: make([]bool, w.n),
		Live:  cfa.NewLvalSet(),
	}
	w.res.Stats.InputEdges = w.n
	w.live = w.res.Live

	last := w.src.Edge(w.n - 1)
	if last == nil {
		return nil, w.src.Err()
	}
	w.pcStep = last.Dst

	if s.Opts.EarlyUnsatStop {
		w.enc = wp.NewTraceEncoder(s.Prog, s.Alias, s.Addrs)
		w.solver = smt.NewSolverWithLimits(s.Opts.SolverLimits)
	}

	w.i = w.n - 1
	for w.i >= 0 {
		if ctx.Err() != nil {
			// Deadline expired or caller cancelled: keep every edge not
			// yet examined. The result is a superset of the precise
			// slice, hence still sound; only completeness (minimality)
			// degrades. See docs/ROBUSTNESS.md.
			if err := w.degradeRest(); err != nil {
				return nil, err
			}
			break
		}
		e := w.src.Edge(w.i)
		if e == nil {
			return nil, w.src.Err()
		}
		op := e.Op
		w.res.Stats.WalkedEdges++
		tk, deg := s.take(op, e, w.live, w.pcStep)
		if deg {
			w.res.Degraded = true
			w.invalidateRecs()
		}
		w.record(w.i, tk)
		if tk {
			if op.Kind == cfa.OpReturn && s.Summ != nil {
				handled, stopped, err := w.trySummary(ctx, e)
				if err != nil {
					return nil, err
				}
				if handled {
					if stopped {
						break
					}
					w.finalizeRecs()
					continue
				}
				// Miss: a recorder was pushed; walk the frame for real.
			}
			w.markDec(w.i, summ.DecTaken)
			w.res.Taken[w.i] = true
			w.countTaken(op.Kind)
			w.takeLive(op)
			w.pcStep = e.Src
			if s.Opts.EarlyUnsatStop {
				w.solver.Assert(w.enc.EncodeOpBackward(op))
				if op.Kind == cfa.OpAssume && w.earlyCheck(ctx) {
					w.i-- // the current edge is already taken
					break
				}
			}
			w.i--
			w.finalizeRecs()
			continue
		}
		// Not taken: Algorithm 1 line 12 with the §4 and §4.2 index
		// adjustments.
		// §4.2 frame-entry relevance: when the query cannot be answered,
		// assume a live lvalue may be written (no skip) — degrading to a
		// larger but sound slice.
		entryMayWrite := true
		if s.Opts.SkipFunctions && w.src.CallIdx(w.i) >= 0 {
			wr, werr := s.DF.WrBt(e.Src.Fn.Entry, e.Src, w.live)
			if werr != nil {
				w.res.Degraded = true
				w.invalidateRecs()
				wr = true
			}
			entryMayWrite = wr
		}
		switch {
		case op.Kind == cfa.OpReturn:
			// Skip the entire irrelevant frame: resume just before the
			// call edge that opened it.
			w.markDec(w.i, summ.DecSkipFrame)
			w.res.Stats.SkippedFrames++
			next := w.src.CallIdx(w.i) - 1
			w.recordSkipped(w.i-1, next)
			w.i = next
		case s.Opts.SkipFunctions && w.src.CallIdx(w.i) >= 0 && !entryMayWrite:
			// §4.2: no live lvalue can be written between the frame's
			// entry and here — jump straight to the call edge (which is
			// then taken), dropping the guard chain. Sacrifices
			// completeness.
			w.markDec(w.i, summ.DecSkipChain)
			w.res.Stats.SkippedGuardChains++
			next := w.src.CallIdx(w.i)
			w.recordSkipped(w.i-1, next)
			w.i = next
		default:
			w.markDec(w.i, summ.DecNotTaken)
			w.i--
		}
		w.finalizeRecs()
	}

	// Collect the taken edges in order. With a streaming source this
	// re-reads only the kept blocks, forward.
	res := w.res
	for idx, tk := range res.Taken {
		if tk {
			e := w.src.Edge(idx)
			if e == nil {
				return nil, w.src.Err()
			}
			res.Slice = append(res.Slice, e)
		}
	}
	res.Stats.SliceEdges = len(res.Slice)
	res.Stats.SliceBlocks = res.Slice.BasicBlocks()
	res.Stats.InputBlocks = w.inputBlocks()
	mSlices.Inc()
	mInputEdges.Add(int64(res.Stats.InputEdges))
	mSliceEdges.Add(int64(res.Stats.SliceEdges))
	if res.Stats.EarlyStopped {
		mEarlyStops.Inc()
	}
	mRatioPercent.Observe(int64(100 * res.Stats.Ratio()))
	if res.Degraded {
		mDegraded.Inc()
	}
	return res, nil
}

// inputBlocks counts the input path's basic blocks. For a materialized
// path this delegates to the exact cfa.Path.BasicBlocks; a streaming
// source would need a full forward re-read, so the count is carried by
// the same definition over the source's edges.
func (w *walker) inputBlocks() int {
	if a, ok := w.src.(*pathAdapter); ok {
		return a.p.BasicBlocks()
	}
	blocks := 1
	var prevKind cfa.OpKind
	for i := 0; i < w.n; i++ {
		e := w.src.Edge(i)
		if e == nil {
			return blocks
		}
		if i > 0 && (len(e.Src.Out) > 1 || prevKind == cfa.OpCall || prevKind == cfa.OpReturn) {
			blocks++
		}
		prevKind = e.Op.Kind
	}
	return blocks
}

// degradeRest keeps every not-yet-examined edge (context expiry).
func (w *walker) degradeRest() error {
	for j := w.i; j >= 0; j-- {
		if !w.res.Taken[j] {
			e := w.src.Edge(j)
			if e == nil {
				return w.src.Err()
			}
			w.res.Taken[j] = true
			w.countTaken(e.Op.Kind)
		}
	}
	w.res.Degraded = true
	return nil
}

// countTaken charges one kept edge to its per-kind Stats counter.
func (w *walker) countTaken(k cfa.OpKind) {
	switch k {
	case cfa.OpAssign:
		w.res.Stats.TakenAssign++
	case cfa.OpAssume:
		w.res.Stats.TakenAssume++
	case cfa.OpCall:
		w.res.Stats.TakenCall++
	case cfa.OpReturn:
		w.res.Stats.TakenReturn++
	case cfa.OpSpawn:
		w.res.Stats.TakenSpawn++
	case cfa.OpJoin:
		w.res.Stats.TakenJoin++
	}
}

// takeLive applies Live := (Live \ Wt.op) ∪ Rd.op with the must-alias
// kill set of §3.4, and composes the update into every active frame
// recording (kills ∪= Wt; adds = (adds \ Wt) ∪ Rd).
func (w *walker) takeLive(op cfa.Op) {
	if op.Kind == cfa.OpAssign {
		for _, l := range w.s.Alias.MustWritten(op.LHS) {
			w.live.Remove(l)
			for _, r := range w.recs {
				r.kills.Add(l)
				r.adds.Remove(l)
			}
		}
	}
	rd := op.Rd()
	w.live.AddAll(rd)
	for _, r := range w.recs {
		r.adds.AddAll(rd)
	}
}

// earlyCheck runs the early-unsat-stop satisfiability check at the
// configured cadence; true means the prefix is unsatisfiable and the
// walk must stop.
func (w *walker) earlyCheck(ctx context.Context) bool {
	w.assumesSinceCheck++
	if w.assumesSinceCheck < w.s.Opts.CheckEvery {
		return false
	}
	w.assumesSinceCheck = 0
	w.res.Stats.SolverChecks++
	// An Unknown verdict here (limit, deadline, or injected fault)
	// simply means no early stop: slicing continues and the slice can
	// only grow.
	if r := w.solver.CheckCtx(ctx); r.Status == smt.StatusUnsat {
		w.res.KnownInfeasible = true
		w.res.Stats.EarlyStopped = true
		return true
	}
	return false
}

// record appends a TracePoint (Options.RecordTrace only).
func (w *walker) record(i int, taken bool) {
	if !w.s.Opts.RecordTrace {
		return
	}
	e := w.src.Edge(i)
	if e == nil {
		return
	}
	w.res.Trace = append(w.res.Trace, TracePoint{
		Index:    i,
		Live:     w.live.Copy(),
		StepLoc:  w.pcStep,
		Taken:    taken,
		EdgeRepr: e.String(),
	})
}

// recordSkipped appends TracePoints for a skipped range (from down to
// to, exclusive), Options.RecordTrace only.
func (w *walker) recordSkipped(from, to int) {
	if !w.s.Opts.RecordTrace {
		return
	}
	for j := from; j > to; j-- {
		e := w.src.Edge(j)
		if e == nil {
			return
		}
		w.res.Trace = append(w.res.Trace, TracePoint{
			Index: j, Live: w.live.Copy(), StepLoc: w.pcStep,
			Skipped: true, EdgeRepr: e.String(),
		})
	}
}

// ---------------------------------------------------------------------------
// Frame summaries (Options.Summaries)

// trySummary handles a taken return edge at w.i through the summary
// table. It returns handled=true when a memoized context covered the
// whole frame (w.i has been advanced past the call edge; stopped
// reports an early-unsat stop during replay). On a miss it pushes a
// recorder and returns handled=false: the caller walks the frame for
// real, filling the recording in.
func (w *walker) trySummary(ctx context.Context, e *cfa.Edge) (handled, stopped bool, err error) {
	hi := w.i
	lo := w.src.CallIdx(hi)
	if lo < 0 {
		return false, false, nil
	}
	callee := e.Src.Fn.Name

	// Segment key: the exact edge-ID sequence of the frame.
	ids := w.segIDs[:0]
	var h uint64
	for j := lo; j <= hi; j++ {
		eg := w.src.Edge(j)
		if eg == nil {
			return false, false, w.src.Err()
		}
		ids = append(ids, int32(eg.ID))
		h = summ.HashEdgeID(h, int32(eg.ID))
	}
	w.segIDs = ids

	// Context key: the live set projected onto what the callee can
	// touch.
	proj, lh := w.s.Summ.Project(callee, w.live)

	if sum := w.s.Summ.Lookup(h, ids, lh, proj); sum != nil {
		w.res.Stats.SummaryHits++
		if w.s.Opts.EarlyUnsatStop {
			stopped, err = w.replaySummary(ctx, sum, lo, hi)
			return true, stopped, err
		}
		if err := w.applySummary(sum, lo); err != nil {
			return false, false, err
		}
		return true, false, nil
	}
	w.res.Stats.SummaryMisses++
	w.recs = append(w.recs, &frameRec{
		lo: lo, hi: hi, callee: callee,
		segHash: h, liveHash: lh,
		edgeIDs: append([]int32(nil), ids...),
		proj:    proj,
		dec:     make([]summ.Decision, hi-lo+1),
		kills:   cfa.NewLvalSet(),
		adds:    cfa.NewLvalSet(),
		base:    w.res.Stats,
	})
	return false, false, nil
}

// applySummary replays a memoized frame in O(kept edges): mark the
// kept edges, add the frame's Stats effects, apply the live-set
// transfer, and resume just before the call edge. Only valid without
// EarlyUnsatStop (no solver assertions to replay).
func (w *walker) applySummary(sum *summ.Summary, lo int) error {
	for _, off := range sum.TakenOffs {
		w.res.Taken[lo+int(off)] = true
	}
	st := &w.res.Stats
	st.TakenAssign += sum.Effects.TakenAssign
	st.TakenAssume += sum.Effects.TakenAssume
	st.TakenCall += sum.Effects.TakenCall
	st.TakenReturn += sum.Effects.TakenReturn
	st.SkippedFrames += sum.Effects.SkippedFrames
	st.SkippedGuardChains += sum.Effects.SkippedGuardChains
	for _, l := range sum.Kills {
		w.live.Remove(l)
	}
	for _, l := range sum.Adds {
		w.live.Add(l)
	}
	// Compose into enclosing recordings: their decision vectors absorb
	// the memoized frame verbatim, their live transfers compose as
	// kills ∪= K; adds = (adds \ K) ∪ A.
	for _, r := range w.recs {
		copy(r.dec[lo-r.lo:], sum.Dec)
		for _, l := range sum.Kills {
			r.kills.Add(l)
			r.adds.Remove(l)
		}
		for _, l := range sum.Adds {
			r.adds.Add(l)
		}
	}
	callEdge := w.src.Edge(lo)
	if callEdge == nil {
		return w.src.Err()
	}
	w.pcStep = callEdge.Src
	w.i = lo - 1
	return nil
}

// replaySummary applies a memoized frame edge by edge, re-asserting
// the kept operations to the incremental solver so the early-unsat
// cadence, solver state, and any mid-frame stop are identical to the
// plain walk. The Take predicate's relevance queries — the expensive
// part — are skipped; decisions come from the summary.
func (w *walker) replaySummary(ctx context.Context, sum *summ.Summary, lo, hi int) (stopped bool, err error) {
	for j := hi; j >= lo; j-- {
		switch sum.Dec[j-lo] {
		case summ.DecTaken:
			e := w.src.Edge(j)
			if e == nil {
				return false, w.src.Err()
			}
			op := e.Op
			w.res.Taken[j] = true
			w.countTaken(op.Kind)
			w.takeLive(op)
			w.pcStep = e.Src
			w.solver.Assert(w.enc.EncodeOpBackward(op))
			if op.Kind == cfa.OpAssume && w.earlyCheck(ctx) {
				w.i = j - 1
				return true, nil
			}
		case summ.DecSkipFrame:
			w.res.Stats.SkippedFrames++
		case summ.DecSkipChain:
			w.res.Stats.SkippedGuardChains++
		}
	}
	// Fully replayed: enclosing recordings absorb the decisions (the
	// live transfer already composed through takeLive per kept edge).
	for _, r := range w.recs {
		copy(r.dec[lo-r.lo:], sum.Dec)
	}
	w.i = lo - 1
	return false, nil
}

// markDec records a decision into every active frame recording.
func (w *walker) markDec(i int, d summ.Decision) {
	for _, r := range w.recs {
		if i >= r.lo && i <= r.hi {
			r.dec[i-r.lo] = d
		}
	}
}

// invalidateRecs poisons active recordings after a degraded relevance
// query: conservative decisions must not be memoized as the context's
// truth.
func (w *walker) invalidateRecs() {
	for _, r := range w.recs {
		r.invalid = true
	}
}

// finalizeRecs stores every recording whose frame the walk has fully
// crossed (w.i moved past its call edge). Recordings pop innermost
// first; invalid ones are dropped.
func (w *walker) finalizeRecs() {
	for len(w.recs) > 0 {
		rec := w.recs[len(w.recs)-1]
		if w.i >= rec.lo {
			return
		}
		w.recs = w.recs[:len(w.recs)-1]
		if rec.invalid {
			continue
		}
		cur := w.res.Stats
		sum := &summ.Summary{
			Callee:  rec.callee,
			EdgeIDs: rec.edgeIDs,
			Live:    rec.proj,
			Dec:     rec.dec,
			Kills:   rec.kills.Sorted(),
			Adds:    rec.adds.Sorted(),
			Effects: summ.Effects{
				TakenAssign:        cur.TakenAssign - rec.base.TakenAssign,
				TakenAssume:        cur.TakenAssume - rec.base.TakenAssume,
				TakenCall:          cur.TakenCall - rec.base.TakenCall,
				TakenReturn:        cur.TakenReturn - rec.base.TakenReturn,
				SkippedFrames:      cur.SkippedFrames - rec.base.SkippedFrames,
				SkippedGuardChains: cur.SkippedGuardChains - rec.base.SkippedGuardChains,
			},
		}
		for off, d := range rec.dec {
			if d == summ.DecTaken {
				sum.TakenOffs = append(sum.TakenOffs, int32(off))
			}
		}
		w.s.Summ.Insert(sum, rec.segHash, rec.liveHash)
	}
}

// ---------------------------------------------------------------------------
// The Take predicate

// take implements the Take predicate (Figure 3, with the §3.4 pointer
// generalization and the §4 call/return rules). The second result
// reports degradation: a relevance query that could not be answered,
// in which case the edge is conservatively taken (sound — a kept edge
// never invalidates the slice).
func (s *Slicer) take(op cfa.Op, e *cfa.Edge, live cfa.LvalSet, pcStep *cfa.Loc) (bool, bool) {
	switch op.Kind {
	case cfa.OpAssign:
		if s.Opts.Unsound == UnsoundDropAliasedWrites {
			// Broken on purpose: syntactic liveness only, no aliasing.
			return live.Has(op.LHS), false
		}
		// Take if the written lvalue may alias a live lvalue.
		for l := range live {
			if s.Alias.MayAlias(op.LHS, l) {
				return true, false
			}
		}
		return false, false
	case cfa.OpAssume:
		// A lone assume with no sibling branch (MiniC's `assume(p);`
		// statement) can halt the program outright; the paper's model
		// only has complementary branch pairs, where the By test covers
		// this. Taking such an edge is always sound and strengthens
		// completeness beyond the paper's "cannot reach pc_out" escape
		// clause — see DESIGN.md §6. Trivially-true assumes (the
		// builder's skip/jump edges) can never block and keep the
		// original rule.
		if len(e.Src.Out) == 1 && !predIsTriviallyTrue(op.Pred) {
			return true, false
		}
		// Take if a live lvalue may be written between here and the
		// step location, or if this location can bypass it.
		wr, werr := s.DF.WrBt(e.Src, pcStep, live)
		if werr != nil {
			return true, true
		}
		if wr {
			return true, false
		}
		if s.Opts.Unsound == UnsoundDropGuards {
			// Broken on purpose: no By test — bypassing guards dropped.
			return false, false
		}
		by, berr := s.DF.By(e.Src, pcStep)
		if berr != nil {
			return true, true
		}
		return by, false
	case cfa.OpCall:
		// Calls are always taken, keeping WrBt/By queries
		// intraprocedural (§4.1).
		return true, false
	case cfa.OpReturn:
		if s.Opts.Unsound == UnsoundSkipCallees {
			// Broken on purpose: every callee frame skipped, mod-ref
			// ignored.
			return false, false
		}
		// Take (and hence analyze the call body) only if the callee
		// may modify a live lvalue.
		return s.Mods.ModsAny(e.Src.Fn.Name, live), false
	case cfa.OpSpawn, cfa.OpJoin:
		// Thread operations are always kept: a slice must preserve the
		// thread structure of its trace (docs/CONCURRENCY.md).
		return true, false
	}
	return false, false
}

// predIsTriviallyTrue recognizes the builder's unconditional edges.
func predIsTriviallyTrue(p ast.Expr) bool {
	lit, ok := p.(*ast.IntLit)
	return ok && lit.Value != 0
}

// CheckFeasibility encodes the trace of a slice (or any path) and asks
// the decision procedure for a verdict. On StatusSat the returned model
// gives an initial state witnessing WP.true.(Tr.slice).
func (s *Slicer) CheckFeasibility(p cfa.Path) (smt.Result, *wp.TraceEncoder) {
	return s.CheckFeasibilityCtx(context.Background(), p)
}

// CheckFeasibilityCtx is CheckFeasibility under a context: when it is
// cancelled or times out the solve returns StatusUnknown — never a
// wrong Sat or Unsat.
func (s *Slicer) CheckFeasibilityCtx(ctx context.Context, p cfa.Path) (smt.Result, *wp.TraceEncoder) {
	sp := obs.StartSpan(obs.PhaseFeasibility)
	defer sp.End()
	enc := wp.NewTraceEncoder(s.Prog, s.Alias, s.Addrs)
	f := enc.EncodeTrace(p.Ops())
	return smt.SolveCtx(ctx, f, s.Opts.SolverLimits), enc
}

// CheckFeasibilityBatchCtx decides feasibility of several paths in one
// batched solver call (smt.SolveBatchCtx): queries are answered from
// the cache where possible, grouped by shared variable support, and
// walked on per-group incremental solvers so common trace prefixes are
// asserted once. Results are in input order; workers bounds concurrent
// groups (<=1 means serial). Verdict semantics match per-path
// CheckFeasibilityCtx.
func (s *Slicer) CheckFeasibilityBatchCtx(ctx context.Context, paths []cfa.Path, cache *smt.Cache, workers int) []smt.Result {
	sp := obs.StartSpan(obs.PhaseFeasibility)
	defer sp.End()
	fs := make([]logic.Formula, len(paths))
	for i, p := range paths {
		enc := wp.NewTraceEncoder(s.Prog, s.Alias, s.Addrs)
		fs[i] = enc.EncodeTrace(p.Ops())
	}
	return smt.SolveBatchCtx(ctx, fs, smt.BatchOptions{
		Workers: workers,
		Cache:   cache,
		Lim:     s.Opts.SolverLimits,
	})
}

// TraceFormula returns the forward SSA constraint formula of a path's
// trace, for callers that want to inspect or reuse it.
func (s *Slicer) TraceFormula(p cfa.Path) logic.Formula {
	enc := wp.NewTraceEncoder(s.Prog, s.Alias, s.Addrs)
	return enc.EncodeTrace(p.Ops())
}
