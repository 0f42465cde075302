package main

import (
	"fmt"
	"strconv"
	"strings"

	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/instrument"
	"pathslice/internal/lang/ast"
	"pathslice/internal/lang/parser"
	"pathslice/internal/lang/types"
	"pathslice/internal/synth"
)

// Table-1 profiles run at the committed artifacts' scale: at 0.12 no
// cluster carries the diverging (timeout) pattern, so every check has
// a planted Safe or Unsafe answer.
const table1Scale = 0.12

// table1Profiles returns the six Table-1 profiles for generator slot k
// of a workload seed: seed 0, slot 0 is the paper's own generation.
// Each seed owns 1<<20 slots, and the synth seeds of two profiles never
// collide because their base seeds differ by less than 1000.
func table1Profiles(seed int64, k int) []synth.Profile {
	ps := synth.PaperProfiles(table1Scale)
	for i := range ps {
		ps[i].Seed += 1000 * (seed<<20 + int64(k))
	}
	return ps
}

// clusterProgram is one Table-1 check: the per-cluster program of a
// generated profile, compiled, with the verdict its planted pattern
// implies.
type clusterProgram struct {
	name string // profile/generator seed/cluster function
	want cegar.Verdict
	ast  *ast.Program
	prog *cfa.Program
}

// plantedVerdict is the known answer of the check function fn, read
// from the profile's planted patterns rather than from any checker:
// a safe usage pattern must verify, every bug pattern (and the heap
// pattern's false alarm) must be reported.
func plantedVerdict(p synth.Profile, fn string) (cegar.Verdict, error) {
	idx, err := strconv.Atoi(strings.TrimPrefix(fn, "check"))
	if !strings.HasPrefix(fn, "check") || err != nil {
		return 0, fmt.Errorf("%s: cluster %s is not a check function", p.Name, fn)
	}
	switch p.Patterns[idx] {
	case synth.PatternSafe:
		return cegar.VerdictSafe, nil
	case synth.PatternNullCheckMissing, synth.PatternDoubleClose, synth.PatternUseAfterClose, synth.PatternHeap:
		return cegar.VerdictUnsafe, nil
	}
	return 0, fmt.Errorf("%s: cluster %s has no decided known answer", p.Name, fn)
}

// generateInstrumented generates a profile's program, parses it and
// instruments it, in synth.generate, parser.parse and
// instrument.instrument spans.
func generateInstrumented(tr *tracer, op, parent int, p synth.Profile) (*instrument.Result, error) {
	id := tr.begin(op, parent, "synth.generate")
	src := synth.Generate(p)
	tr.end(id)
	id = tr.begin(op, parent, "parser.parse")
	parsed, err := parser.Parse([]byte(src))
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.Name, err)
	}
	id = tr.begin(op, parent, "instrument.instrument")
	ins, err := instrument.Instrument(parsed)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: instrument: %w", p.Name, err)
	}
	return ins, nil
}

// buildCFA type-checks a program and lowers it to CFAs, in types.check
// and cfa.build spans.
func buildCFA(tr *tracer, op, parent int, prog *ast.Program) (*cfa.Program, error) {
	id := tr.begin(op, parent, "types.check")
	info, err := types.Check(prog)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	id = tr.begin(op, parent, "cfa.build")
	cp, err := cfa.Build(info)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("cfa: %w", err)
	}
	return cp, nil
}

// compileClusters generates a profile's program and compiles each of
// its clusters, the per-check programs of the paper's methodology.
func compileClusters(tr *tracer, op, parent int, p synth.Profile) ([]clusterProgram, error) {
	ins, err := generateInstrumented(tr, op, parent, p)
	if err != nil {
		return nil, err
	}
	var out []clusterProgram
	for _, c := range ins.Clusters {
		want, err := plantedVerdict(p, c.Function)
		if err != nil {
			return nil, err
		}
		id := tr.begin(op, parent, "instrument.for_cluster")
		cp, err := instrument.ForCluster(ins.Prog, c.Function)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.Name, c.Function, err)
		}
		prog, err := buildCFA(tr, op, parent, cp)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.Name, c.Function, err)
		}
		out = append(out, clusterProgram{
			name: fmt.Sprintf("%s/%d/%s", p.Name, p.Seed, c.Function),
			want: want, ast: cp, prog: prog,
		})
	}
	return out, nil
}

// frontEndLayers adds the set-up layer metrics every workload records:
// the median over set-ups of the time spent in each front-end module.
func frontEndLayers(tr *tracer, m map[string]metric) {
	m["parser.parse_ms"] = metric{tr.layerMS(phaseSetup, "parser.parse"), "ms"}
	m["types.check_ms"] = metric{tr.layerMS(phaseSetup, "types.check"), "ms"}
	m["instrument.instrument_ms"] = metric{tr.layerMS(phaseSetup, "instrument.instrument", "instrument.for_cluster"), "ms"}
	m["cfa.build_ms"] = metric{tr.layerMS(phaseSetup, "cfa.build"), "ms"}
}
