package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pathslice/internal/alias"
	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/core"
	"pathslice/internal/dataflow"
	"pathslice/internal/modref"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
)

// The table1 workload: one op is one cluster check by a fresh
// cegar.Checker. A round checks every cluster of the six Table-1
// profiles under table1GenSeeds generator seeds, and each round of a
// run has generator seeds of its own, so a run's percentiles rest on
// many programs rather than on a few repeated ones; the rounds are
// equal in size and profile mix, and their median throughput is the
// run's. A round's programs are compiled just before it, so the heap
// holds one round's programs, as it holds one profile's in
// bench.RunBenchmark; the set-up is compiling the first round's.
const (
	table1GenSeeds     = 3     // 3 x 15 = 45 clusters per round
	table1MaxWork      = 30000 // cmd/benchjson's budget
	table1SetupReps    = 9
	table1RoundSeconds = 3.8
	table1MinRounds    = 3
)

// refinement is one counterexample verdict the checker acted on, as
// cegar.Options.OnRefinement reports it.
type refinement struct {
	trace, analyzed cfa.Path
	status          smt.Status
}

// table1Counts sums one round's check results and runtime counters.
type table1Counts struct {
	work, refinements, predicates       int
	solverCalls, cacheHits, cacheMisses int64
	memoHits                            int64
	alloc                               allocs
	gcCycles                            uint64
	gcCPU, allCPU                       float64
	selfMS                              float64
	slices                              sliceCounts
}

func runTable1(cfg config) (*runStats, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		// The program's own phase totals give the time a check spends
		// in the slicer (see checkChildren).
		obs.SetTracer(obs.NewTracer(nil))
		defer obs.SetTracer(nil)
	}
	st := &runStats{tailPct: 90, spans: tr}
	rounds := roundsFor(cfg.seconds, table1RoundSeconds, table1MinRounds)
	var clusters []clusterProgram
	for rep := 0; rep < table1SetupReps; rep++ {
		clusters = nil
		runtime.GC()
		start := time.Now()
		cs, err := table1Compile(tr, phaseSetup, rep, cfg.seed, 0)
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, time.Since(start))
		clusters = cs
	}
	st.opsPerRound = len(clusters)

	ctx := context.Background()
	counts := make([]table1Counts, rounds)
	for r := 0; r < rounds; r++ {
		if r > 0 {
			clusters = nil
			cs, err := table1Compile(tr, phaseRound, r, cfg.seed, r)
			if err != nil {
				return nil, err
			}
			if len(cs) != st.opsPerRound {
				return nil, fmt.Errorf("round %d has %d clusters, round 0 has %d", r, len(cs), st.opsPerRound)
			}
			clusters = cs
		}
		var roundTime time.Duration
		for _, c := range clusters {
			lat, ok, err := table1Op(ctx, tr, r, c, st, &counts[r])
			if err != nil {
				return nil, err
			}
			st.attempted++
			if ok {
				st.ok++
			}
			st.latencies = append(st.latencies, lat)
			roundTime += lat
		}
		// Summed op latencies, not the round's wall time: a traced
		// round also replays every counterexample, and its throughput
		// must count the checks alone, as an untraced round does.
		st.rounds = append(st.rounds, roundTime)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	st.peakRSSMB = rss
	if tr != nil {
		st.layers, err = table1Layers(tr, counts, st)
		if err != nil {
			return nil, err
		}
		st.violations = append(st.violations, tr.account()...)
	}
	return st, nil
}

// table1Compile generates and compiles the clusters of one round, as
// an op of the given set-up or round.
func table1Compile(tr *tracer, phase string, index int, seed int64, round int) ([]clusterProgram, error) {
	op := tr.newOp(phase, index)
	root := tr.begin(op, 0, "table1.compile")
	defer tr.end(root)
	var all []clusterProgram
	for k := 0; k < table1GenSeeds; k++ {
		for _, p := range table1Profiles(seed, round*table1GenSeeds+k) {
			cs, err := compileClusters(tr, op, root, p)
			if err != nil {
				return nil, err
			}
			all = append(all, cs...)
		}
	}
	return all, nil
}

// table1Op checks one cluster the way bench.RunBenchmark does: a fresh
// checker, every error location in turn, the first Unsafe settling the
// cluster. It reports the op's latency and whether the verdict equals
// the planted one. An untraced op is timed by the wall clock around
// the calls, a traced one by its root span; a traced op is then
// replayed, and its cegar.self_ms is its checks' time less the part
// they spent in the slicer.
func table1Op(ctx context.Context, tr *tracer, round int, c clusterProgram, st *runStats, n *table1Counts) (time.Duration, bool, error) {
	var refs []refinement
	opts := cegar.Options{UseSlicing: true, MaxWork: table1MaxWork}
	if tr != nil {
		opts.OnRefinement = func(trace, analyzed cfa.Path, status smt.Status) {
			refs = append(refs, refinement{trace, analyzed, status})
		}
	}
	op := tr.newOp(phaseRound, round)
	var gc0 gcSample
	if tr != nil {
		gc0 = readGC()
	}
	start := time.Now()
	root := tr.begin(op, 0, "table1.check")
	id := tr.begin(op, root, "cegar.new")
	checker := cegar.New(c.prog, opts)
	tr.end(id)
	verdict := cegar.VerdictSafe
	var checkTime, childTime time.Duration
	for _, loc := range c.prog.ErrorLocs() {
		var a0 allocs
		var child0 time.Duration
		if tr != nil {
			a0 = readAllocs()
			child0 = checkChildren()
		}
		id := tr.begin(op, root, "cegar.check")
		res, err := checker.CheckCtx(ctx, loc)
		tr.end(id)
		if err != nil {
			res = &cegar.Result{Verdict: cegar.VerdictUnknown} // a failed op
		}
		if tr != nil {
			childTime += checkChildren() - child0
			n.alloc = n.alloc.plus(readAllocs().since(a0))
			checkTime += tr.spans[id-1].dur()
		}
		n.work += res.Work
		n.refinements += res.Refinements
		n.predicates += res.Predicates
		n.solverCalls += res.SolverCalls
		n.cacheHits += res.CacheHits
		n.cacheMisses += res.CacheMisses
		n.memoHits += res.PostMemoHits
		for _, ts := range res.Traces {
			st.ratios = append(st.ratios, ts.RatioPercent())
		}
		if res.Verdict != cegar.VerdictSafe {
			verdict = res.Verdict
		}
		if res.Verdict == cegar.VerdictUnsafe {
			break
		}
	}
	tr.end(root)
	lat := time.Since(start)
	if tr == nil {
		return lat, verdict == c.want, nil
	}
	lat = tr.spans[root-1].dur()
	gc1 := readGC()
	n.gcCycles += gc1.cycles - gc0.cycles
	n.gcCPU += gc1.gcCPU - gc0.gcCPU
	n.allCPU += gc1.allCPU - gc0.allCPU
	if err := table1Replay(ctx, tr, round, c, refs, n, st); err != nil {
		return 0, false, err
	}
	self := ms(checkTime - childTime)
	if self < 0 {
		st.violations = append(st.violations, fmt.Sprintf("%s: negative cegar.self_ms %.3f", c.name, self))
	}
	n.selfMS += self
	return lat, verdict == c.want, nil
}

// checkChildren is the program's running total, on the global obs
// tracer, of the phases a cegar check hands to its slicer: slicing and
// feasibility. Both run only inside CheckCtx and never inside each
// other, so the growth of this total across a check is the part of
// the check's time they took, and the rest is cegar's own (reach and
// refine, which are not exported).
func checkChildren() time.Duration {
	var d time.Duration
	for _, ps := range obs.CurrentTracer().PhaseStats() {
		if ps.Phase == obs.PhasePathSlice || ps.Phase == obs.PhaseFeasibility {
			d += ps.Total
		}
	}
	return d
}

// table1Replay re-runs, outside the check, the exported layers the
// checker calls inside it: the alias, mod-ref and dataflow analyses
// cegar.New runs and, for every counterexample the checker analyzed,
// the slice on a fresh default core.Slicer, its trace formula and the
// solve. The replayed slice and status must equal what the checker
// acted on.
func table1Replay(ctx context.Context, tr *tracer, round int, c clusterProgram, refs []refinement, n *table1Counts, st *runStats) error {
	op := tr.newOp(phaseRound, round)
	root := tr.begin(op, 0, "table1.replay")
	defer tr.end(root)
	id := tr.begin(op, root, "alias.analyze")
	al := alias.Analyze(c.prog)
	tr.end(id)
	id = tr.begin(op, root, "modref.analyze")
	mr := modref.Analyze(c.prog, al)
	tr.end(id)
	id = tr.begin(op, root, "dataflow.analyze")
	dataflow.Analyze(c.prog, al, mr)
	tr.end(id)
	id = tr.begin(op, root, "core.new")
	sl := core.New(c.prog)
	tr.end(id)
	for i, ref := range refs {
		sr, err := sliceTraced(ctx, tr, op, root, sl, ref.trace, &n.slices)
		if err != nil {
			return fmt.Errorf("%s: replay %d: %w", c.name, i, err)
		}
		status := smt.StatusUnsat // an early-stop slice is proved infeasible
		if !sr.KnownInfeasible {
			status = solveTraced(ctx, tr, op, root, sl, sr.Slice, &n.slices)
		}
		if !samePath(sr.Slice, ref.analyzed) {
			st.violations = append(st.violations, fmt.Sprintf("%s: replayed slice %d differs from the checker's", c.name, i))
		}
		if status != ref.status {
			st.violations = append(st.violations, fmt.Sprintf("%s: replayed status %d is %v, the checker's %v", c.name, i, status, ref.status))
		}
	}
	return nil
}

// table1Layers turns the traced run into per-layer metrics: times as
// the median over rounds (or set-ups) of the time spent per round,
// counts as the median over rounds of per-round sums.
func table1Layers(tr *tracer, counts []table1Counts, st *runStats) (map[string]metric, error) {
	med := func(f func(table1Counts) float64) float64 {
		xs := make([]float64, len(counts))
		for i, c := range counts {
			xs[i] = f(c)
		}
		return median(xs)
	}
	m := map[string]metric{
		"alias.analyze_ms":      {tr.layerMS(phaseRound, "alias.analyze"), "ms"},
		"modref.analyze_ms":     {tr.layerMS(phaseRound, "modref.analyze"), "ms"},
		"dataflow.analyze_ms":   {tr.layerMS(phaseRound, "dataflow.analyze"), "ms"},
		"cegar.new_ms":          {tr.layerMS(phaseRound, "cegar.new"), "ms"},
		"cegar.check_ms":        {tr.layerMS(phaseRound, "cegar.check"), "ms"},
		"cegar.self_ms":         {med(func(c table1Counts) float64 { return c.selfMS }), "ms"},
		"cegar.work":            {med(func(c table1Counts) float64 { return float64(c.work) }), "count"},
		"cegar.refinements":     {med(func(c table1Counts) float64 { return float64(c.refinements) }), "count"},
		"cegar.predicates":      {med(func(c table1Counts) float64 { return float64(c.predicates) }), "count"},
		"cegar.solver_calls":    {med(func(c table1Counts) float64 { return float64(c.solverCalls) }), "count"},
		"cegar.post_memo_hits":  {med(func(c table1Counts) float64 { return float64(c.memoHits) }), "count"},
		"cegar.alloc_mb":        {med(func(c table1Counts) float64 { return float64(c.alloc.bytes) / 1e6 }), "MB"},
		"cegar.mallocs":         {med(func(c table1Counts) float64 { return float64(c.alloc.objects) }), "count"},
		"cegar.cache_hit_ratio": {med(func(c table1Counts) float64 { return ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)) }), "ratio"},
		"core.slice_ms":         {tr.layerMS(phaseRound, "core.slice"), "ms"},
		"wp.encode_ms":          {tr.layerMS(phaseRound, "wp.encode"), "ms"},
		"smt.solve_ms":          {tr.layerMS(phaseRound, "smt.solve"), "ms"},
		"runtime.gc_cycles":     {med(func(c table1Counts) float64 { return float64(c.gcCycles) }), "count"},
		"runtime.gc_cpu_share":  {med(func(c table1Counts) float64 { return ratio(c.gcCPU, c.allCPU) }), "ratio"},
	}
	core := make([]sliceCounts, len(counts))
	for i, c := range counts {
		core[i] = c.slices
	}
	addSliceLayers(m, core)
	frontEndLayers(tr, m)
	e2e, err := endToEnd(st)
	if err != nil {
		return nil, err
	}
	m["trace.ops_per_s"] = e2e["ops_per_s"]
	return completeLayers(m)
}
