// Concurrent path slicing: the two-phase walk over interleaved
// multi-threaded traces (docs/CONCURRENCY.md).
//
// Phase 1 (inter-thread) computes the happens-before "racy edges" of
// the trace: conflicting cross-thread accesses to the same storage
// (at least one a write, linked to the immediately preceding
// conflicting access per location, so lock-induced ordering arrives
// for free through the lock shadow variables of internal/instrument)
// plus the spawn/join synchronization edges. The racy-edge endpoints
// split the total order into instruction regions — maximal runs in
// which slicing is a purely thread-local matter.
//
// Phase 2 runs the paper's backward walk per thread over the shared
// total order, newest event first: each thread carries its own live
// set and step location, and every Take decision is the sequential
// predicate (core.take) against the thread-local state. The racy
// edges are load-bearing: at the source of a write→read racy edge the
// walk asks whether the written variable is live in the reading
// thread, and if so forces the write into the slice exactly like a
// same-thread demand would. The transfer is per-variable, not a
// whole-live-set union: a write's cross-thread relevance is precisely
// "some reader still needs this location", and keeping the query that
// narrow makes every Take decision a function of the conflict partial
// order alone — reordering two adjacent events with no racy edge
// between them provably cannot change any decision, which is the
// commute invariant the oracle checks (internal/oracle). Kills stay
// thread-local (a cross-thread kill would be unsound), so concurrent
// slices are conservative supersets.
//
// Frame skipping at untaken returns survives for frames that are
// conflict-free — no write→read racy edge leaves the frame with its
// variable still demanded by the reading thread — and contain no
// spawn/join. The demand test is the same per-variable query the
// merge uses, so it too depends only on the conflict partial order;
// sync and read→write/write→write edges never block a skip, because
// dropping a read or an overwritten write cannot lose a demanded
// value. The same rule, applied to a thread's outermost return, skips
// entire irrelevant threads.
//
// The §4.2 optimizations (EarlyUnsatStop, SkipFunctions), frame
// summaries, and streaming apply only to sequential traces and are
// ignored here: an unsat verdict under the recorded interleaving
// would not prove all feasible interleavings unsat, and summary
// contexts are not stable under cross-thread merges.

package core

import (
	"context"
	"fmt"
	"time"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// Concurrency metrics (docs/OBSERVABILITY.md).
var (
	mConcSlices = obs.Default().Counter("slicer_conc_slices_total")
	mRacyEdges  = obs.Default().Counter("slicer_racy_edges_total")
	mRegions    = obs.Default().Counter("slicer_regions_total")
)

// RacyKind classifies a racy edge.
type RacyKind int

// The racy-edge kinds. Only write→read edges carry live-set transfer
// during the walk; all kinds constrain reordering and delimit regions.
const (
	// RacyWriteRead: the source writes a location the target reads.
	RacyWriteRead RacyKind = iota
	// RacyReadWrite: the source reads a location the target overwrites.
	RacyReadWrite
	// RacyWriteWrite: both access points write the same location.
	RacyWriteWrite
	// RacySync: spawn→first-child-event and last-child-event→join.
	RacySync
)

// String names the kind.
func (k RacyKind) String() string {
	switch k {
	case RacyWriteRead:
		return "write-read"
	case RacyReadWrite:
		return "read-write"
	case RacyWriteWrite:
		return "write-write"
	case RacySync:
		return "sync"
	}
	return "?"
}

// RacyEdge is a happens-before constraint between two trace positions
// on different threads: the event at From must stay ordered before the
// event at To in any reordering of the trace.
type RacyEdge struct {
	From, To int
	Var      string // conflicting concrete variable ("" for sync edges)
	Kind     RacyKind
}

// ConcStats extends Stats with the inter-thread phase's measures.
type ConcStats struct {
	Stats
	Threads   int
	RacyEdges int
	Regions   int
	// SkippedThreads counts whole threads dropped at an untaken
	// outermost return.
	SkippedThreads int
}

// ConcResult is the outcome of slicing one concurrent trace.
type ConcResult struct {
	// Slice is the kept sub-trace, in the original total order.
	Slice cfa.ConcTrace
	// Taken[i] reports whether trace event i is in the slice.
	Taken []bool
	// Live is the union of the per-thread live sets where each thread's
	// walk stopped: the lvalues whose initial values the slice depends
	// on.
	Live cfa.LvalSet
	// Racy holds the phase-1 racy edges of the input trace.
	Racy []RacyEdge
	// Degraded mirrors Result.Degraded: a deadline or unanswerable
	// relevance query forced conservative keeps.
	Degraded bool
	Stats    ConcStats
}

// eventAccess returns the concrete variables op reads and writes, with
// dereferences expanded through the points-to sets, for conflict
// detection. Spawn, join, call, and return events access nothing
// themselves — the callee's operations appear in the trace in person.
func (s *Slicer) eventAccess(op cfa.Op) (reads, writes []string) {
	for l := range op.Rd() {
		if l.Deref {
			reads = append(reads, s.Alias.Pts(l.Var)...)
		} else {
			reads = append(reads, l.Var)
		}
	}
	if op.Kind == cfa.OpAssign {
		writes = s.Alias.WrittenVars(op.LHS)
	}
	return reads, writes
}

// RacyEdges runs phase 1: the happens-before edges of the trace.
// Conflicting-access edges link each access to the immediately
// preceding cross-thread conflicting access per concrete variable;
// sync edges tie each spawn to its child's first event and each
// child's last event to the spawner's next join.
func (s *Slicer) RacyEdges(tr cfa.ConcTrace) []RacyEdge {
	type access struct {
		pos, tid int
	}
	var edges []RacyEdge
	lastWrite := make(map[string]access)
	readersSince := make(map[string][]access)
	for i, ev := range tr {
		reads, writes := s.eventAccess(ev.Edge.Op)
		for _, v := range reads {
			if w, ok := lastWrite[v]; ok && w.tid != ev.TID {
				edges = append(edges, RacyEdge{From: w.pos, To: i, Var: v, Kind: RacyWriteRead})
			}
			readersSince[v] = append(readersSince[v], access{pos: i, tid: ev.TID})
		}
		for _, v := range writes {
			if w, ok := lastWrite[v]; ok && w.tid != ev.TID {
				edges = append(edges, RacyEdge{From: w.pos, To: i, Var: v, Kind: RacyWriteWrite})
			}
			for _, r := range readersSince[v] {
				if r.tid != ev.TID {
					edges = append(edges, RacyEdge{From: r.pos, To: i, Var: v, Kind: RacyReadWrite})
				}
			}
			lastWrite[v] = access{pos: i, tid: ev.TID}
			delete(readersSince, v)
		}
	}
	// Sync edges. Thread IDs are positional (the k-th spawn creates
	// thread k), so one forward scan recovers the spawn structure.
	tidx := tr.ThreadIndex()
	spawns := 0
	for i, ev := range tr {
		if ev.Edge.Op.Kind != cfa.OpSpawn {
			continue
		}
		spawns++
		child := spawns
		if child >= len(tidx) || len(tidx[child]) == 0 {
			continue // the child never ran
		}
		first, last := tidx[child][0], tidx[child][len(tidx[child])-1]
		edges = append(edges, RacyEdge{From: i, To: first, Kind: RacySync})
		// The spawner's first join after the child's last event.
		for _, j := range tidx[ev.TID] {
			if j > last && tr[j].Edge.Op.Kind == cfa.OpJoin {
				edges = append(edges, RacyEdge{From: last, To: j, Kind: RacySync})
				break
			}
		}
	}
	return edges
}

// concRegions counts the instruction regions the racy edges cut the
// trace into: region boundaries fall immediately after each edge
// source and immediately before each edge target, and a region is a
// maximal boundary-free run of consecutive events.
func concRegions(n int, edges []RacyEdge) int {
	if n == 0 {
		return 0
	}
	breaks := make(map[int]bool)
	for _, e := range edges {
		if e.From < n-1 {
			breaks[e.From] = true
		}
		if e.To > 0 && e.To-1 < n-1 {
			breaks[e.To-1] = true
		}
	}
	return 1 + len(breaks)
}

// ConcSlice runs the two-phase concurrent walk over a validated trace.
func (s *Slicer) ConcSlice(tr cfa.ConcTrace) (*ConcResult, error) {
	return s.ConcSliceCtx(context.Background(), tr)
}

// ConcSliceCtx is ConcSlice under a context. Expiry mid-walk keeps
// every unexamined event — a sound, degraded superset, as in SliceCtx.
func (s *Slicer) ConcSliceCtx(ctx context.Context, tr cfa.ConcTrace) (res *ConcResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if verr := tr.Validate(s.Prog); verr != nil {
		return nil, fmt.Errorf("core: %w", verr)
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
			res, err = nil, fmt.Errorf("core: panic during concurrent slicing: %v", r)
		}
	}()
	w := &concWalker{s: s, tr: tr}
	return w.run(ctx)
}

// concWalker is the state of one concurrent backward pass.
type concWalker struct {
	s  *Slicer
	tr cfa.ConcTrace

	res      *ConcResult
	tidx     [][]int // thread -> trace positions, in order
	localIdx []int   // trace position -> index within its thread
	callIdx  [][]int // per thread: local §4 call structure
	// threadOps[t][k] counts spawn/join ops among thread t's first k
	// local events, for O(1) "does this frame contain thread ops" tests.
	threadOps [][]int

	live      []cfa.LvalSet
	pcStep    []*cfa.Loc
	dropUntil []int // per thread: local index floor of a committed skip, -1 none

	// wrFrom[pos] lists the write→read racy edges whose source is pos.
	wrFrom map[int][]RacyEdge
	// spawnChild[pos] is the thread created by the spawn event at pos.
	spawnChild map[int]int
	// stale supports UnsoundStaleThreadLiveSet: the first demand query
	// against thread u snapshots u's live set; later queries reuse it.
	stale map[int]cfa.LvalSet
}

func (w *concWalker) run(ctx context.Context) (*ConcResult, error) {
	s, tr := w.s, w.tr
	n := len(tr)
	nt := tr.NumThreads()

	w.res = &ConcResult{Taken: make([]bool, n), Live: cfa.NewLvalSet()}
	w.res.Stats.InputEdges = n
	w.res.Stats.Threads = nt

	w.tidx = tr.ThreadIndex()
	w.localIdx = make([]int, n)
	w.callIdx = make([][]int, nt)
	w.threadOps = make([][]int, nt)
	for t, idxs := range w.tidx {
		p := make(cfa.Path, len(idxs))
		ops := make([]int, len(idxs)+1)
		for k, pos := range idxs {
			w.localIdx[pos] = k
			p[k] = tr[pos].Edge
			ops[k+1] = ops[k]
			if kd := p[k].Op.Kind; kd == cfa.OpSpawn || kd == cfa.OpJoin {
				ops[k+1]++
			}
		}
		if len(p) > 0 {
			w.callIdx[t] = p.CallIdx()
		}
		w.threadOps[t] = ops
		w.res.Stats.InputBlocks += p.BasicBlocks()
	}

	// Phase 1: racy edges and regions.
	w.res.Racy = s.RacyEdges(tr)
	w.res.Stats.RacyEdges = len(w.res.Racy)
	w.res.Stats.Regions = concRegions(n, w.res.Racy)

	w.wrFrom = make(map[int][]RacyEdge)
	if s.Opts.Unsound != UnsoundDropRacyEdges {
		for _, re := range w.res.Racy {
			if re.Kind == RacyWriteRead {
				w.wrFrom[re.From] = append(w.wrFrom[re.From], re)
			}
		}
	}
	w.spawnChild = make(map[int]int)
	spawns := 0
	for i, ev := range tr {
		if ev.Edge.Op.Kind == cfa.OpSpawn {
			spawns++
			w.spawnChild[i] = spawns
		}
	}

	w.live = make([]cfa.LvalSet, nt)
	w.pcStep = make([]*cfa.Loc, nt)
	w.dropUntil = make([]int, nt)
	for t := 0; t < nt; t++ {
		w.live[t] = cfa.NewLvalSet()
		w.dropUntil[t] = -1
	}
	w.stale = make(map[int]cfa.LvalSet)

	// Phase 2: the backward walk over the total order.
	for i := n - 1; i >= 0; i-- {
		if ctx.Err() != nil {
			for j := i; j >= 0; j-- {
				if !w.res.Taken[j] {
					w.res.Taken[j] = true
					w.countTaken(tr[j].Edge.Op.Kind)
				}
			}
			w.res.Degraded = true
			break
		}
		ev := tr[i]
		t, li := ev.TID, w.localIdx[i]
		if w.dropUntil[t] >= 0 {
			// Inside a committed frame or thread skip.
			if li == w.dropUntil[t] {
				w.dropUntil[t] = -1
			}
			continue
		}
		if w.pcStep[t] == nil {
			w.pcStep[t] = ev.Edge.Dst
		}
		w.res.Stats.WalkedEdges++
		e, op := ev.Edge, ev.Edge.Op

		taken, degraded := false, false
		switch op.Kind {
		case cfa.OpSpawn:
			// The spawned child's residual demands flow into the spawner:
			// whatever the child's walk still needs at its creation point
			// must be preserved by the parent's earlier writes.
			if c, ok := w.spawnChild[i]; ok && c < len(w.live) {
				w.live[t].AddAll(w.live[c])
			}
			taken = true
		case cfa.OpJoin, cfa.OpCall:
			taken = true
		case cfa.OpReturn:
			taken = w.takeReturn(i, t, li)
		default:
			if w.crossDemand(i) {
				taken = true
			} else {
				taken, degraded = s.take(op, e, w.live[t], w.pcStep[t])
			}
		}
		if degraded {
			w.res.Degraded = true
		}
		if taken {
			w.res.Taken[i] = true
			w.countTaken(op.Kind)
			w.takeLiveThread(t, op)
			w.pcStep[t] = e.Src
			continue
		}
		if op.Kind == cfa.OpReturn {
			// Commit the skip: to the call edge for an inner frame, or
			// the whole thread for an outermost return.
			if c := w.callIdx[t][li]; c >= 0 {
				w.dropUntil[t] = c
				w.res.Stats.SkippedFrames++
			} else {
				w.dropUntil[t] = 0
				w.res.Stats.SkippedThreads++
			}
		}
	}

	for t := 0; t < nt; t++ {
		w.res.Live.AddAll(w.live[t])
	}
	for i, tk := range w.res.Taken {
		if tk {
			w.res.Slice = append(w.res.Slice, tr[i])
		}
	}
	w.res.Stats.SliceEdges = len(w.res.Slice)
	for t := 0; t < tr.NumThreads(); t++ {
		w.res.Stats.SliceBlocks += w.res.Slice.ThreadPath(t).BasicBlocks()
	}
	mConcSlices.Inc()
	mSlices.Inc()
	mInputEdges.Add(int64(n))
	mSliceEdges.Add(int64(w.res.Stats.SliceEdges))
	mRacyEdges.Add(int64(w.res.Stats.RacyEdges))
	mRegions.Add(int64(w.res.Stats.Regions))
	if n > 0 {
		mRatioPercent.Observe(int64(100 * w.res.Stats.Ratio()))
	}
	if w.res.Degraded {
		mDegraded.Inc()
	}
	return w.res, nil
}

// crossDemand reports whether the event at trace position i — the
// source of one or more write→read racy edges — writes a variable some
// reading thread still finds live. A positive answer forces the event
// into the slice: a cross-thread demand is as binding as a same-thread
// one. The query is per-variable against the reader's live set, so the
// answer depends only on the conflict partial order of the trace, not
// on where unrelated events happen to sit in the total order. Under
// UnsoundStaleThreadLiveSet the query runs against the snapshot taken
// at the first query of each thread — the planted staleness bug.
func (w *concWalker) crossDemand(i int) bool {
	for _, re := range w.wrFrom[i] {
		u := w.tr[re.To].TID
		set := w.live[u]
		if w.s.Opts.Unsound == UnsoundStaleThreadLiveSet {
			snap, ok := w.stale[u]
			if !ok {
				snap = w.live[u].Copy()
				w.stale[u] = snap
			}
			set = snap
		}
		if demandsVar(set, re.Var, w.s.Alias) {
			return true
		}
	}
	return false
}

// demandsVar reports whether a live set demands the concrete variable
// v, looking through pointer lvalues via the points-to sets.
func demandsVar(live cfa.LvalSet, v string, al *alias.Info) bool {
	for l := range live {
		if !l.Deref {
			if l.Var == v {
				return true
			}
			continue
		}
		for _, p := range al.Pts(l.Var) {
			if p == v {
				return true
			}
		}
	}
	return false
}

// takeReturn decides a return edge: keep it when the returning frame
// (or, for an outermost return, the whole thread) may write anything
// its own thread finds live, when any frame event sources a write→read
// racy edge, or when the frame contains spawn/join events that the
// slice must preserve. The racy test is pure edge existence, not
// current demand: a reading event below the return has not been walked
// yet, so its demand is unknowable at commit time, and existence is a
// property of the conflict structure alone — the same trace reordered
// across non-conflicting pairs has the same sourced-edge sets, which
// keeps the skip decision commute-invariant. A frame with an outgoing
// edge is simply walked event by event; each source then answers the
// precise per-variable demand query at its own position, where every
// later event has been processed.
func (w *concWalker) takeReturn(i, t, li int) bool {
	if w.s.Opts.Unsound == UnsoundSkipCallees {
		return false
	}
	if w.s.Mods.ModsAny(w.tr[i].Edge.Src.Fn.Name, w.live[t]) {
		return true
	}
	lo := w.callIdx[t][li] // -1 for an outermost return: drop to local 0
	if lo < 0 {
		lo = 0
	}
	// The range must not swallow spawn/join events.
	if w.threadOps[t][li+1]-w.threadOps[t][lo] > 0 {
		return true
	}
	// No dropped event may source a write→read edge: another thread
	// reads one of the frame's writes, so the skip could lose it.
	for k := lo; k <= li; k++ {
		if len(w.wrFrom[w.tidx[t][k]]) > 0 {
			return true
		}
	}
	return false
}

// takeLiveThread is takeLive against thread t's live set: kills are
// thread-local (a cross-thread kill would be unsound), reads are added.
func (w *concWalker) takeLiveThread(t int, op cfa.Op) {
	if op.Kind == cfa.OpAssign {
		for _, l := range w.s.Alias.MustWritten(op.LHS) {
			w.live[t].Remove(l)
		}
	}
	w.live[t].AddAll(op.Rd())
}

// countTaken charges one kept event to its per-kind counter.
func (w *concWalker) countTaken(k cfa.OpKind) {
	st := &w.res.Stats
	switch k {
	case cfa.OpAssign:
		st.TakenAssign++
	case cfa.OpAssume:
		st.TakenAssume++
	case cfa.OpCall:
		st.TakenCall++
	case cfa.OpReturn:
		st.TakenReturn++
	case cfa.OpSpawn:
		st.TakenSpawn++
	case cfa.OpJoin:
		st.TakenJoin++
	}
}

// CheckConcFeasibility asks the decision procedure about a concurrent
// trace's recorded linearization, under ctx: like CheckFeasibilityCtx,
// a cancelled or expired context answers StatusUnknown. Threads share
// all memory, so the trace's constraint formula is the sequential
// encoding of its total-order operation sequence (spawn and join encode
// as true). Note the verdict speaks only for this interleaving: an
// Unsat recorded order says nothing about other legal reorderings,
// which is exactly why the concurrent walk never early-stops.
func (s *Slicer) CheckConcFeasibility(ctx context.Context, tr cfa.ConcTrace) (smt.Result, *wp.TraceEncoder) {
	sp := obs.StartSpan(obs.PhaseFeasibility)
	defer sp.End()
	enc := wp.NewTraceEncoder(s.Prog, s.Alias, s.Addrs)
	f := enc.EncodeTrace(tr.Ops())
	return smt.SolveCtx(ctx, f, s.Opts.SolverLimits), enc
}
