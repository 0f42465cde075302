package wp_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pathslice/internal/alias"
	"pathslice/internal/bench"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/instrument"
	"pathslice/internal/lang/types"
	"pathslice/internal/logic"
	"pathslice/internal/synth"
	"pathslice/internal/wp"
)

// freshOpsSource reaches every conversion that mints fresh names: a
// nondet() read, a boolean-valued right-hand side, a read through a
// two-target pointer, and stores through one- and two-target pointers.
const freshOpsSource = `
	int a; int b; int c; int *p; int *q;
	void main() {
		a = nondet();
		b = (a < c);
		p = &a;
		if (nondet() > 0) { q = &a; } else { q = &b; }
		c = *q;
		*p = c + 1;
		*q = a;
		if (a > b + c) { error; }
	}`

// compiledOpPrograms returns freshOpsSource and every cluster of the
// Table-1 profiles at scale 0.12.
func compiledOpPrograms(t *testing.T) map[string]*cfa.Program {
	t.Helper()
	progs := map[string]*cfa.Program{"fresh-ops": compile.MustSource(freshOpsSource)}
	for _, p := range synth.PaperProfiles(0.12) {
		ins, err := bench.CompileProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range ins.Clusters {
			ast, err := instrument.ForCluster(ins.Prog, cl.Function)
			if err != nil {
				t.Fatal(err)
			}
			info, err := types.Check(ast)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfa.Build(info)
			if err != nil {
				t.Fatal(err)
			}
			progs[p.Name+"/"+cl.Function] = prog
		}
	}
	return progs
}

// written returns p over the variables op writes (a comparison with one
// program variable when it writes none), so an assignment's WP
// substitutes into it.
func written(op cfa.Op, al *alias.Info, prog *cfa.Program) logic.Formula {
	var vars []string
	if op.Kind == cfa.OpAssign {
		vars = []string{op.LHS.Var}
		if op.LHS.Deref {
			vars = al.Pts(op.LHS.Var)
		}
	}
	if len(vars) == 0 {
		for name := range prog.Types {
			if vars == nil || name < vars[0] {
				vars = []string{name}
			}
		}
	}
	var t logic.Term = logic.Const{V: 7}
	for _, v := range vars {
		t = logic.Bin{Op: logic.OpAdd, X: t, Y: logic.Var{Name: v}}
	}
	return logic.Cmp{Op: logic.CmpLt, X: t, Y: logic.Const{V: 0}}
}

// compiledMismatches applies apply to every edge of progs at counter
// values 0, 4096 and 8192 and to true, p and ¬p, and counts the
// applications whose formula or final counter differs from a per-call
// conversion at that counter; first describes the first of them.
// fresh and havoc count the applications that minted $f and $h names.
func compiledMismatches(progs map[string]*cfa.Program,
	apply func(*wp.CompiledOp, logic.Formula, *int) logic.Formula) (mismatches int, first string, fresh, havoc int) {
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog := progs[name]
		al, addrs := alias.Analyze(prog), wp.NewAddrMap(prog)
		for _, fn := range prog.Funcs {
			for _, e := range fn.Edges {
				op := wp.CompileOp(e.Op, al, addrs)
				p := written(e.Op, al, prog)
				for _, base := range []int{0, 4096, 8192} {
					for _, phi := range []logic.Formula{logic.True, p, logic.MkNot(p)} {
						wantID, gotID := base, base
						want := wp.ConvertPerCall(phi, e.Op, al, addrs, &wantID).String()
						got := apply(op, phi, &gotID).String()
						if got != want || gotID != wantID {
							if mismatches++; mismatches == 1 {
								first = fmt.Sprintf("%s: %s at %d: %s (counter %d), per call %s (counter %d)",
									name, e, base, got, gotID, want, wantID)
							}
						}
						if strings.Contains(want, "$f") {
							fresh++
						}
						if strings.Contains(want, "$h") {
							havoc++
						}
					}
				}
			}
		}
	}
	return mismatches, first, fresh, havoc
}

// TestCompiledOpMatchesPerCallConversion: a compiled operation applied
// at any counter value must build the formula a per-call conversion
// from that value builds, string for string, and leave the counter
// where it leaves it; solver-cache keys and the post memo depend on
// both. A compiled form that skips the renaming must be caught.
func TestCompiledOpMatchesPerCallConversion(t *testing.T) {
	progs := compiledOpPrograms(t)
	mismatches, first, fresh, havoc := compiledMismatches(progs, (*wp.CompiledOp).WP)
	if mismatches > 0 {
		t.Errorf("%d applications differ from the per-call conversion, first %s", mismatches, first)
	}
	if fresh == 0 || havoc == 0 {
		t.Errorf("%d applications minted $f names and %d $h names; the corpus must reach both", fresh, havoc)
	}
	t.Logf("%d programs; %d applications minted $f names, %d $h names", len(progs), fresh, havoc)
	planted, first, _, _ := compiledMismatches(progs, wp.ApplyWithoutRenaming)
	if planted == 0 {
		t.Fatal("a compiled form that skips the renaming went unnoticed")
	}
	t.Logf("the planted form differs in %d applications, first %s", planted, first)
}
