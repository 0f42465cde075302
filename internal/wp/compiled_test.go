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
// nondet() read, ten of them (numbered in name order, $in10 before
// $in2), one that a false conjunct drops (it takes no number), a
// boolean-valued right-hand side (one also reads nondet(), so its
// right-hand side and its side constraints mention different inputs,
// which are numbered in that order), a read through a two-target
// pointer, and stores through one- and two-target pointers.
const freshOpsSource = `
	int a; int b; int c; int *p; int *q;
	void main() {
		a = nondet();
		b = nondet() + nondet() + nondet() + nondet() + nondet() + nondet() + nondet() + nondet() + nondet() + nondet();
		b = (a < c);
		c = (nondet() < b);
		if (0 && nondet() > 0) { c = 1; }
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

// TestCompiledAssignSharesUntouchedPredicate: the WP of an assignment
// to a variable the predicate does not mention is the predicate itself,
// built without allocating; the frame rule then compares the predicate
// with itself.
func TestCompiledAssignSharesUntouchedPredicate(t *testing.T) {
	prog := compile.MustSource(`
		int x; int y; int z;
		void main() {
			x = y + 1;
			if (y > z) { error; }
		}`)
	var op *wp.CompiledOp
	for _, e := range prog.Funcs[prog.Main].Edges {
		if e.Op.Kind == cfa.OpAssign && e.Op.LHS.Var == "x" {
			op = wp.CompileOp(e.Op, alias.Analyze(prog), wp.NewAddrMap(prog))
		}
	}
	if op == nil {
		t.Fatal("no assignment to x")
	}
	y, z := logic.Var{Name: "y"}, logic.Var{Name: "z"}
	atom := logic.Formula(logic.Cmp{Op: logic.CmpGt, X: y, Y: z})
	conj := logic.MkAnd(atom, logic.MkOr(logic.Cmp{Op: logic.CmpEq, X: y, Y: logic.Const{V: 2}},
		logic.MkNot(logic.Cmp{Op: logic.CmpLt, X: logic.Bin{Op: logic.OpAdd, X: z, Y: y}, Y: logic.Const{V: 0}})))
	for _, p := range []logic.Formula{atom, conj} {
		var got logic.Formula
		allocs := testing.AllocsPerRun(100, func() {
			fresh := 4096
			got = op.WP(p, &fresh)
		})
		if !logic.Equal(got, p) {
			t.Errorf("WP(%s) = %s, want the predicate itself", p, got)
		}
		if allocs != 0 {
			t.Errorf("WP(%s) allocated %.1f objects, want 0", p, allocs)
		}
	}
	fresh := 0
	if got := op.WP(atom, &fresh); got != atom {
		t.Errorf("WP(%s) = %s is not the predicate's own value", atom, got)
	}
}
