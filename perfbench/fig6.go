package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/core"
	"pathslice/internal/dataflow"
	"pathslice/internal/modref"
	"pathslice/internal/smt"
	"pathslice/internal/synth"
)

// The fig6 workload: counterexamples of the gcc-class subject in the
// Figure-6 regime, each a cfa.WalkLongPath trace of tens of thousands
// of basic blocks to one error location, and one op slicing a trace
// and deciding its slice on one default core.Slicer, as
// `experiments -fig6` does. The program is the paper's gcc profile on
// every seed; the seed chooses the traces: their order, and each
// one's unrolling within fig6UnrollJitter of fig6Unroll. Every trace
// is unrolled about equally, so the latency tail is a property of many
// traces rather than of the one longest, and no seed's traces cost
// much more than another's.
const (
	fig6Scale        = 0.25
	fig6Unroll       = 1024
	fig6UnrollJitter = 64
	fig6SetupReps    = 3
	fig6RoundSeconds = 0.49
)

// fig6Data is one set-up's product: the slicer and the traces. A trace
// is kept as edge IDs, which the garbage collector need not scan, and
// turned back into a cfa.Path before its op, so the heap holds one
// trace's pointers at a time, as `experiments -fig6` walking and
// slicing one trace after another does.
type fig6Data struct {
	slicer *core.Slicer
	edges  []*cfa.Edge // by ID
	traces [][]int32
	total  int // edges over all traces
}

// path materializes trace i into buf.
func (d *fig6Data) path(i int, buf cfa.Path) cfa.Path {
	buf = buf[:0]
	for _, id := range d.traces[i] {
		buf = append(buf, d.edges[id])
	}
	return buf
}

// fig6Counts sums one round's slicer counters and runtime counters.
type fig6Counts struct {
	slices        sliceCounts
	gcCycles      uint64
	gcCPU, allCPU float64
}

func runFig6(cfg config) (*runStats, error) {
	return runFig6With(cfg, core.Options{})
}

// runFig6With runs fig6 on a slicer built with opts; the benchmark
// runs the default options, and its test plants an unsound slicer to
// show the known-answer check catches it.
func runFig6With(cfg config, opts core.Options) (*runStats, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	// The tail is p90, not the p99 the run's sample count allows: the
	// p99 rested on host stalls and spread 18% and 77% of its median
	// over two ten-seed sets of identical code.
	st := &runStats{tailPct: 90, spans: tr}
	var data *fig6Data
	var setupEdges []float64
	for rep := 0; rep < fig6SetupReps; rep++ {
		data = nil
		runtime.GC()
		start := time.Now()
		d, err := fig6Setup(tr, cfg.seed, rep, opts)
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, time.Since(start))
		data = d
		setupEdges = append(setupEdges, float64(d.total))
	}
	st.opsPerRound = len(data.traces)

	ctx := context.Background()
	// p90 needs at least ten samples beyond it: 100 ops.
	minRounds := (100 + len(data.traces) - 1) / len(data.traces)
	rounds := roundsFor(cfg.seconds, fig6RoundSeconds, minRounds)
	counts := make([]fig6Counts, rounds)
	var buf cfa.Path
	for r := 0; r < rounds; r++ {
		var roundTime time.Duration
		for i := range data.traces {
			buf = data.path(i, buf)
			lat, ok := fig6Op(ctx, tr, r, data.slicer, buf, st, &counts[r])
			st.attempted++
			if ok {
				st.ok++
			}
			st.latencies = append(st.latencies, lat)
			roundTime += lat
		}
		st.rounds = append(st.rounds, roundTime)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	st.peakRSSMB = rss
	if tr != nil {
		m := map[string]metric{
			"cfa.walk_ms":         {tr.layerMS(phaseSetup, "cfa.walk"), "ms"},
			"cfa.trace_edges":     {median(setupEdges), "count"},
			"alias.analyze_ms":    {tr.layerMS(phaseSetup, "alias.analyze"), "ms"},
			"modref.analyze_ms":   {tr.layerMS(phaseSetup, "modref.analyze"), "ms"},
			"dataflow.analyze_ms": {tr.layerMS(phaseSetup, "dataflow.analyze"), "ms"},
			"core.slice_ms":       {tr.layerMS(phaseRound, "core.slice"), "ms"},
			"wp.encode_ms":        {tr.layerMS(phaseRound, "wp.encode"), "ms"},
			"smt.solve_ms":        {tr.layerMS(phaseRound, "smt.solve"), "ms"},
		}
		gcCycles := make([]float64, rounds)
		gcShare := make([]float64, rounds)
		for i, c := range counts {
			gcCycles[i] = float64(c.gcCycles)
			gcShare[i] = ratio(c.gcCPU, c.allCPU)
		}
		core := make([]sliceCounts, len(counts))
		for i, c := range counts {
			core[i] = c.slices
		}
		addSliceLayers(m, core)
		m["runtime.gc_cycles"] = metric{median(gcCycles), "count"}
		m["runtime.gc_cpu_share"] = metric{median(gcShare), "ratio"}
		frontEndLayers(tr, m)
		e2e, err := endToEnd(st)
		if err != nil {
			return nil, err
		}
		m["trace.ops_per_s"] = e2e["ops_per_s"]
		if st.layers, err = completeLayers(m); err != nil {
			return nil, err
		}
		st.violations = append(st.violations, tr.account()...)
	}
	return st, nil
}

// fig6Setup generates and compiles the gcc-class program, builds the
// slicer, and walks a trace to every error location, in an order and
// with unrollings drawn from the workload seed.
func fig6Setup(tr *tracer, seed int64, rep int, opts core.Options) (*fig6Data, error) {
	op := tr.newOp(phaseSetup, rep)
	root := tr.begin(op, 0, "fig6.setup")
	defer tr.end(root)
	p := synth.GccProfile(fig6Scale)
	ins, err := generateInstrumented(tr, op, root, p)
	if err != nil {
		return nil, err
	}
	prog, err := buildCFA(tr, op, root, ins.Prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if tr != nil {
		// core.New runs these analyses inside; the traced set-up runs
		// them once more on their own to time each.
		id := tr.begin(op, root, "alias.analyze")
		al := alias.Analyze(prog)
		tr.end(id)
		id = tr.begin(op, root, "modref.analyze")
		mr := modref.Analyze(prog, al)
		tr.end(id)
		id = tr.begin(op, root, "dataflow.analyze")
		dataflow.Analyze(prog, al, mr)
		tr.end(id)
	}
	id := tr.begin(op, root, "core.new")
	d := &fig6Data{slicer: core.NewWithOptions(prog, opts), edges: make([]*cfa.Edge, prog.NumEdges())}
	tr.end(id)
	for _, fn := range prog.Funcs {
		for _, e := range fn.Edges {
			d.edges[e.ID] = e
		}
	}
	locs := prog.ErrorLocs()
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(locs)) {
		unroll := fig6Unroll - fig6UnrollJitter + rng.Intn(2*fig6UnrollJitter+1)
		id := tr.begin(op, root, "cfa.walk")
		path := cfa.WalkLongPath(prog, locs[i], unroll, 0)
		tr.end(id)
		if path == nil {
			continue
		}
		ids := make([]int32, len(path))
		for j, e := range path {
			ids[j] = int32(e.ID)
		}
		d.traces = append(d.traces, ids)
		d.total += len(path)
	}
	if len(d.traces) < len(locs)/2 {
		return nil, fmt.Errorf("%s: only %d of %d error locations have a long path", p.Name, len(d.traces), len(locs))
	}
	return d, nil
}

// fig6Op slices one trace and decides the slice. The known answer does
// not come from the slicer: a slice is a subsequence of its trace, and
// the gcc-class profile plants no bug, so every slice is infeasible. A
// traced op then decides the slice again through the exported halves
// of the feasibility check, whose status must agree.
func fig6Op(ctx context.Context, tr *tracer, round int, sl *core.Slicer, path cfa.Path, st *runStats, n *fig6Counts) (time.Duration, bool) {
	op := tr.newOp(phaseRound, round)
	if tr == nil {
		start := time.Now()
		sr, err := sl.SliceCtx(ctx, path)
		if err != nil {
			return time.Since(start), false
		}
		fr, _ := sl.CheckFeasibilityCtx(ctx, sr.Slice)
		lat := time.Since(start)
		st.ratios = append(st.ratios, 100*float64(sr.Stats.SliceBlocks)/float64(sr.Stats.InputBlocks))
		return lat, fr.Status == smt.StatusUnsat && path.Subsequence(sr.Slice)
	}

	gc0 := readGC()
	root := tr.begin(op, 0, "fig6.op")
	sr, err := sliceTraced(ctx, tr, op, root, sl, path, &n.slices)
	var fr smt.Result
	if err == nil {
		id := tr.begin(op, root, "core.feasibility")
		fr, _ = sl.CheckFeasibilityCtx(ctx, sr.Slice)
		tr.end(id)
	}
	tr.end(root)
	lat := tr.spans[root-1].dur()
	gc1 := readGC()
	n.gcCycles += gc1.cycles - gc0.cycles
	n.gcCPU += gc1.gcCPU - gc0.gcCPU
	n.allCPU += gc1.allCPU - gc0.allCPU
	if err != nil {
		return lat, false
	}
	st.ratios = append(st.ratios, 100*float64(sr.Stats.SliceBlocks)/float64(sr.Stats.InputBlocks))

	rop := tr.newOp(phaseRound, round)
	rroot := tr.begin(rop, 0, "fig6.replay")
	status := solveTraced(ctx, tr, rop, rroot, sl, sr.Slice, &n.slices)
	tr.end(rroot)
	if status != fr.Status {
		st.violations = append(st.violations, fmt.Sprintf("fig6 round %d: encode+solve status %v, CheckFeasibilityCtx %v", round, status, fr.Status))
	}
	return lat, fr.Status == smt.StatusUnsat && path.Subsequence(sr.Slice)
}

// sliceTraced runs Slicer.SliceCtx in a core.slice span and adds the
// result's counters, and the allocation read around the span, to n.
func sliceTraced(ctx context.Context, tr *tracer, op, parent int, sl *core.Slicer, path cfa.Path, n *sliceCounts) (*core.Result, error) {
	a0 := readAllocs()
	id := tr.begin(op, parent, "core.slice")
	sr, err := sl.SliceCtx(ctx, path)
	tr.end(id)
	n.allocBytes += readAllocs().since(a0).bytes
	if err != nil {
		return nil, err
	}
	s := sr.Stats
	n.input += s.InputEdges
	n.walked += s.WalkedEdges
	n.slice += s.SliceEdges
	n.skippedFrames += s.SkippedFrames
	n.summaryHits += s.SummaryHits
	return sr, nil
}

// solveTraced decides a slice through the two exported halves of
// Slicer.CheckFeasibilityCtx: Slicer.TraceFormula in a wp.encode span,
// then smt.SolveCtx in an smt.solve span. It returns the status.
func solveTraced(ctx context.Context, tr *tracer, op, parent int, sl *core.Slicer, slice cfa.Path, n *sliceCounts) smt.Status {
	id := tr.begin(op, parent, "wp.encode")
	f := sl.TraceFormula(slice)
	tr.end(id)
	id = tr.begin(op, parent, "smt.solve")
	res := smt.SolveCtx(ctx, f, sl.Opts.SolverLimits)
	tr.end(id)
	if res.Status == smt.StatusUnknown {
		n.unknown++
	}
	return res.Status
}

// samePath reports whether two paths are the same edges in order.
func samePath(a, b cfa.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
