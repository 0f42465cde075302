package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
)

// Gcc-class summary sweep: the frame-summary benchmark behind
// BenchmarkSummarizedSlice and the root TestPerformanceGates. The
// subject is a program whose error trace is dominated by deep, repeated
// call chains — the shape of the paper's gcc counterexamples (§5,
// Figure 6), where a depth-first model checker unrolls the same
// procedures thousands of times. A plain backward walk pays the full
// Take evaluation on every edge of every repetition; the context-keyed
// summaries (internal/summ) pay it once per distinct (frame, projected
// live set) and replay the memoized decisions afterwards, so doubling
// the trace length grows the walked edges by well under 2x.
// TestPerformanceGates gates exactly that ratio.

// CallHeavyConfig shapes the gcc-class subject for the summary sweep.
type CallHeavyConfig struct {
	// Chains is how many distinct call chains the main loop invokes
	// per iteration. Every chain is relevant (its leaf increments the
	// guarded variable), so every frame is entered by the backward
	// walk rather than skipped at an untaken return.
	Chains int
	// Depth is the number of nested functions per chain; summaries for
	// inner frames compose into the enclosing recording, so the hit at
	// the chain head covers the whole subtree.
	Depth int
	// BodyOps is the count of straight-line noise assignments in each
	// chain's leaf. They write a variable nothing reads, so they bulk
	// up the frame the baseline must walk while staying out of the
	// slice — the summarized replay cost is O(kept), not O(frame).
	BodyOps int
}

// DefaultGccConfig is the sweep shape TestPerformanceGates gates:
// roughly 330 trace operations per loop iteration, of which only ~60
// land in the slice.
func DefaultGccConfig() CallHeavyConfig {
	return CallHeavyConfig{Chains: 4, Depth: 6, BodyOps: 40}
}

// CallHeavySource generates the MiniC subject. Each chain c is
// main -> c<i>f0 -> ... -> c<i>f<Depth-1>; the leaf performs BodyOps
// noise writes to a dead variable and one increment of the guarded
// accumulator x. The loop bound is far above any realistic unrolling,
// so WalkLongPath's budget k alone controls trace length.
func CallHeavySource(cfg CallHeavyConfig) string {
	var sb strings.Builder
	sb.WriteString("int x;\nint noise;\n\n")
	for c := 0; c < cfg.Chains; c++ {
		// Leaf first: MiniC callees must be defined before use.
		fmt.Fprintf(&sb, "void c%df%d() {\n", c, cfg.Depth-1)
		for op := 0; op < cfg.BodyOps; op++ {
			fmt.Fprintf(&sb, "  noise = noise + %d;\n", op+1)
		}
		sb.WriteString("  x = x + 1;\n}\n\n")
		for d := cfg.Depth - 2; d >= 0; d-- {
			fmt.Fprintf(&sb, "void c%df%d() {\n  noise = noise * 2;\n  c%df%d();\n}\n\n", c, d, c, d+1)
		}
	}
	sb.WriteString("void main() {\n  x = 0;\n  noise = 0;\n  for (int i = 0; i < 1000000; i = i + 1) {\n")
	for c := 0; c < cfg.Chains; c++ {
		fmt.Fprintf(&sb, "    c%df0();\n", c)
	}
	sb.WriteString("  }\n  if (x > 1000000) {\n    error;\n  }\n}\n")
	return sb.String()
}

// CallHeavySetup compiles the subject and returns the program plus its
// error location (the WalkLongPath target).
func CallHeavySetup(cfg CallHeavyConfig) (*cfa.Program, *cfa.Loc, error) {
	prog, err := compile.Source(CallHeavySource(cfg))
	if err != nil {
		return nil, nil, err
	}
	errs := prog.ErrorLocs()
	if len(errs) == 0 {
		return nil, nil, fmt.Errorf("bench: call-heavy subject has no error location")
	}
	return prog, errs[0], nil
}

// SummarySweepRow is one trace-length point of the sweep.
type SummarySweepRow struct {
	TraceOps   int
	SliceEdges int
	// SummarizedWalked is the summarized walk's deterministic Take
	// evaluation count (core.Stats.WalkedEdges): the machine-checked
	// sublinearity claim. TestPerformanceGates requires its
	// per-doubling growth to stay under 1.8x, which wall time — noisy
	// on shared hosts — could not gate reliably.
	SummarizedWalked int
	StreamPeakFrames int
}

// SummarySweep slices one WalkLongPath trace per unrolling bound, each
// both ways — plain walk and summarized, each on a fresh slicer, so
// the memo warms only within the trace and the curve is the cold
// slicer's. The two slices must agree. Each trace is also
// round-tripped through a PSTRC file and sliced with SliceStream to
// record the bounded resident-frame peak and to cross-check that the
// streamed slice is identical.
func SummarySweep(cfg CallHeavyConfig, unrolls []int) ([]SummarySweepRow, error) {
	prog, target, err := CallHeavySetup(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "summsweep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rows []SummarySweepRow
	for _, k := range unrolls {
		path := cfa.WalkLongPath(prog, target, k, 0)
		if path == nil {
			return nil, fmt.Errorf("bench: no length-%d walk to the error location", k)
		}
		row := SummarySweepRow{TraceOps: len(path)}

		base, err := core.New(prog).Slice(path)
		if err != nil {
			return nil, err
		}
		summ, err := core.NewWithOptions(prog, core.Options{Summaries: true}).Slice(path)
		if err != nil {
			return nil, err
		}
		if base.Stats.SliceEdges != summ.Stats.SliceEdges {
			return nil, fmt.Errorf("bench: summarized slice diverged at k=%d: %d edges vs %d",
				k, summ.Stats.SliceEdges, base.Stats.SliceEdges)
		}
		row.SliceEdges = base.Stats.SliceEdges
		row.SummarizedWalked = summ.Stats.WalkedEdges

		traceFile := filepath.Join(dir, fmt.Sprintf("k%d.pstrc", k))
		if err := cfa.WriteTraceFile(traceFile, prog, path); err != nil {
			return nil, err
		}
		r, err := cfa.OpenTraceFile(traceFile, prog)
		if err != nil {
			return nil, err
		}
		streamed, err := core.NewWithOptions(prog, core.Options{Summaries: true}).SliceStream(context.Background(), r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if streamed.Stats.SliceEdges != base.Stats.SliceEdges {
			return nil, fmt.Errorf("bench: streamed slice diverged at k=%d: %d edges vs %d",
				k, streamed.Stats.SliceEdges, base.Stats.SliceEdges)
		}
		row.StreamPeakFrames = r.FramesPeak()
		rows = append(rows, row)
	}
	return rows, nil
}
