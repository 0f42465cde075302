package bench

import (
	"fmt"
	"strings"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/interp"
	"pathslice/internal/wp"
)

// Concurrency twin benchmark: the same workload emitted twice, once
// with the workers spawned as threads and once with them called in
// sequence (spawn f() -> f(), join dropped). Any interleaving of the
// threaded twin executes the same per-worker operations as the
// serialized twin, so the cross-thread walk (docs/CONCURRENCY.md) has
// a like-for-like baseline: the extra cost of slicing over racy edges
// is the walked-edge ratio between the two, and TestCompareConcTwin
// gates that ratio at 1.5x.

// ConcTwinConfig shapes the twin workload.
type ConcTwinConfig struct {
	// Workers is the number of spawned (or serially called) worker
	// procedures. Each touches its own global, so the racy edges are
	// the worker->main result reads plus the sync edges.
	Workers int
	// BodyOps is the count of straight-line local ops per worker body,
	// bulking up the per-thread segments the walker must traverse.
	BodyOps int
}

// DefaultConcTwinConfig is the shape TestCompareConcTwin gates:
// 3 workers x 40 body ops, ~190 trace events.
func DefaultConcTwinConfig() ConcTwinConfig {
	return ConcTwinConfig{Workers: 3, BodyOps: 40}
}

// ConcTwinSource generates the MiniC subject. Worker i reads global
// g<i> into a local, applies BodyOps increments, and writes it back;
// main initializes every global, runs the workers (spawned or
// serial), folds the results into acc, and guards the error on the
// sum — so every worker's write is demanded by the slice and must
// cross threads in the threaded twin.
func ConcTwinSource(cfg ConcTwinConfig, threaded bool) string {
	var sb strings.Builder
	for w := 0; w < cfg.Workers; w++ {
		fmt.Fprintf(&sb, "int g%d;\n", w)
	}
	sb.WriteString("int acc;\n\n")
	for w := 0; w < cfg.Workers; w++ {
		fmt.Fprintf(&sb, "void w%d() {\n  int t = g%d;\n", w, w)
		for op := 0; op < cfg.BodyOps; op++ {
			sb.WriteString("  t = t + 1;\n")
		}
		fmt.Fprintf(&sb, "  g%d = t;\n}\n\n", w)
	}
	sb.WriteString("void main() {\n")
	for w := 0; w < cfg.Workers; w++ {
		fmt.Fprintf(&sb, "  g%d = 1;\n", w)
	}
	for w := 0; w < cfg.Workers; w++ {
		if threaded {
			fmt.Fprintf(&sb, "  spawn w%d();\n", w)
		} else {
			fmt.Fprintf(&sb, "  w%d();\n", w)
		}
	}
	if threaded {
		sb.WriteString("  join;\n")
	}
	sb.WriteString("  acc = 0;\n")
	for w := 0; w < cfg.Workers; w++ {
		fmt.Fprintf(&sb, "  acc = acc + g%d;\n", w)
	}
	fmt.Fprintf(&sb, "  if (acc >= %d) {\n    error;\n  }\n}\n", cfg.Workers)
	return sb.String()
}

// ConcComparison is the twin comparison; TestCompareConcTwin gates
// WalkRatio.
type ConcComparison struct {
	// ThreadedWalked/SerialWalked are the deterministic Take
	// evaluation counts (core.Stats.WalkedEdges) of the cross-thread
	// and sequential walks; WalkRatio is their quotient, the price of
	// slicing over racy edges. TestCompareConcTwin fails above 1.5.
	ThreadedWalked int
	SerialWalked   int
	WalkRatio      float64
	// The inter-thread phase's shape, sanity-gated nonzero so the
	// comparison cannot silently degenerate to one thread.
	Threads   int
	RacyEdges int
}

// CompareConcTwin records one threaded error interleaving and the
// serialized twin's error path, slices both, and reports the
// walked-edge ratio.
func CompareConcTwin(cfg ConcTwinConfig) (*ConcComparison, error) {
	if cfg.Workers == 0 {
		cfg = DefaultConcTwinConfig()
	}
	tprog, err := compile.Source(ConcTwinSource(cfg, true))
	if err != nil {
		return nil, fmt.Errorf("bench: threaded twin: %w", err)
	}
	sprog, err := compile.Source(ConcTwinSource(cfg, false))
	if err != nil {
		return nil, fmt.Errorf("bench: serialized twin: %w", err)
	}

	// Record the threaded interleaving: first scheduler seed that
	// reaches the error (the guard holds under every interleaving, so
	// seed 0 already does; the sweep is belt and braces). The
	// comparison is deterministic given the seed.
	var tr cfa.ConcTrace
	for seed := uint64(0); seed < 64; seed++ {
		st := interp.NewState(tprog, wp.NewAddrMap(tprog))
		res := interp.ConcRun(tprog, st, &interp.SliceInputs{}, interp.ConcRunOptions{
			RecordTrace: true, Seed: seed,
		})
		if res.ReachedError {
			tr = res.Trace
			break
		}
	}
	if tr == nil {
		return nil, fmt.Errorf("bench: no error interleaving in 64 scheduler seeds")
	}

	// The serialized twin's error path, concretely executed.
	sst := interp.NewState(sprog, wp.NewAddrMap(sprog))
	sres := interp.Run(sprog, sst, &interp.SliceInputs{}, interp.RunOptions{RecordPath: true})
	if !sres.ReachedError {
		return nil, fmt.Errorf("bench: serialized twin did not reach the error")
	}

	tcres, err := core.New(tprog).ConcSlice(tr)
	if err != nil {
		return nil, err
	}
	scres, err := core.New(sprog).Slice(sres.Path)
	if err != nil {
		return nil, err
	}
	cmpRes := &ConcComparison{
		ThreadedWalked: tcres.Stats.WalkedEdges,
		SerialWalked:   scres.Stats.WalkedEdges,
		Threads:        tcres.Stats.Threads,
		RacyEdges:      tcres.Stats.RacyEdges,
	}
	if cmpRes.SerialWalked > 0 {
		cmpRes.WalkRatio = float64(cmpRes.ThreadedWalked) / float64(cmpRes.SerialWalked)
	}
	return cmpRes, nil
}
