package bench

import (
	"context"
	"fmt"
	"time"

	"pathslice/internal/cfa"
	"pathslice/internal/core"
	"pathslice/internal/logic"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// Batch micro-benchmark: the same feasibility-query corpus run
// through the batched group solver and through the serial
// one-query-at-a-time route. cmd/benchjson records it as the
// `portfolio.batch` section of the BENCH_PR*.json artifact, which
// `make bench-diff` gates on: zero verdict divergences and the batched
// route at least 1.5x faster than serial on the call-heavy sweep.

// BatchComparison is one serial-vs-batched run over the call-heavy
// prefix-sharing corpus.
type BatchComparison struct {
	Queries     int     `json:"queries"`
	Divergences int     `json:"divergences"`
	SerialMS    float64 `json:"serial_ms"`
	BatchedMS   float64 `json:"batched_ms"`
	// Ratio is SerialMS / BatchedMS: how much the prefix-sharing trie
	// walk buys over solving the same queries one at a time.
	Ratio float64 `json:"ratio"`
}

// guardChainQueries builds the feasibility-query corpus from the
// guard-chain error path (GuardChainSource): the backward prefix
// conjunction at every stride-th taken assume, plus the full path. The
// prefixes are satisfiable (each disequality alone is), the full path
// is an interval contradiction (x > 1000 inside x < 500) — so the
// corpus mixes Sat queries of growing size with an ICP-refutable Unsat,
// and consecutive queries share long conjunct prefixes, exactly like
// the slice targets the pipeline batches.
func guardChainQueries(guards, stride int) ([]logic.Formula, error) {
	prog, path, err := GuardChainSetup(guards)
	if err != nil {
		return nil, err
	}
	slicer := core.New(prog)
	enc := wp.NewTraceEncoder(slicer.Prog, slicer.Alias, slicer.Addrs)
	var fs []logic.Formula
	var conj []logic.Formula
	assumes := 0
	for i := len(path) - 1; i >= 0; i-- {
		op := path[i].Op
		conj = append(conj, enc.EncodeOpBackward(op))
		if op.Kind == cfa.OpAssume {
			assumes++
			if assumes%stride == 0 {
				fs = append(fs, logic.MkAnd(append([]logic.Formula(nil), conj...)...))
			}
		}
	}
	fs = append(fs, logic.MkAnd(conj...))
	return fs, nil
}

// CompareBatch times the call-heavy corpus through the serial
// per-query route (smt.SolveCtx) and through SolveBatchCtx, which shares
// asserted prefixes across the group on one incremental solver. Both
// routes run uncached so the comparison times solving, not lookups.
func CompareBatch(guards, stride int) (*BatchComparison, error) {
	fs, err := guardChainQueries(guards, stride)
	if err != nil {
		return nil, err
	}
	var lim smt.Limits
	ctx := context.Background()

	cmp := &BatchComparison{Queries: len(fs)}
	t0 := time.Now()
	serial := make([]smt.Result, len(fs))
	for i, f := range fs {
		serial[i] = smt.SolveCtx(ctx, f, lim)
	}
	cmp.SerialMS = float64(time.Since(t0).Microseconds()) / 1000

	t1 := time.Now()
	batched := smt.SolveBatchCtx(ctx, fs, smt.BatchOptions{Lim: lim})
	cmp.BatchedMS = float64(time.Since(t1).Microseconds()) / 1000

	for i := range fs {
		if serial[i].Status == smt.StatusUnknown || batched[i].Status == smt.StatusUnknown {
			continue
		}
		if serial[i].Status != batched[i].Status {
			cmp.Divergences++
		}
	}
	if cmp.BatchedMS > 0 {
		cmp.Ratio = cmp.SerialMS / cmp.BatchedMS
	}
	return cmp, nil
}

// BestBatchComparison is CompareBatch, best-of-reps per side.
func BestBatchComparison(guards, stride, reps int) (*BatchComparison, error) {
	best, err := CompareBatch(guards, stride)
	if err != nil {
		return nil, err
	}
	for r := 1; r < reps; r++ {
		again, err := CompareBatch(guards, stride)
		if err != nil {
			return nil, err
		}
		if again.Queries != best.Queries || again.Divergences != best.Divergences {
			return nil, fmt.Errorf("bench: batch comparison not deterministic: %+v vs %+v", again, best)
		}
		if again.SerialMS < best.SerialMS {
			best.SerialMS = again.SerialMS
		}
		if again.BatchedMS < best.BatchedMS {
			best.BatchedMS = again.BatchedMS
		}
	}
	if best.BatchedMS > 0 {
		best.Ratio = best.SerialMS / best.BatchedMS
	}
	return best, nil
}
