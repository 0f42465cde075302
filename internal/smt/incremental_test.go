package smt

import (
	"context"
	"testing"

	"pathslice/internal/logic"
)

// TestPushKeepsUnsat is the regression test for the Push/lastUns bug:
// Push only ever adds assertions, so an unsatisfiable set must stay
// unsatisfiable across Push — and the solver must answer from its
// persistent flag without re-solving.
func TestPushKeepsUnsat(t *testing.T) {
	x := logic.Var{Name: "x"}
	s := NewSolver()
	s.Assert(ge(x, logic.Const{V: 1}))
	s.Assert(le(x, logic.Const{V: 0}))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("contradiction: got %v", r.Status)
	}
	checks := s.Checks
	s.Push()
	s.Assert(ge(logic.Var{Name: "y"}, logic.Const{V: 5}))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("superset of unsat set must stay unsat, got %v", r.Status)
	}
	if s.Checks != checks {
		t.Fatalf("sticky unsat across Push must not re-solve: %d solver checks, want %d", s.Checks, checks)
	}
	s.Pop()
	// The flag at Push time was true, so Pop restores an unsat state.
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("post-Pop state was unsat at Push, got %v", r.Status)
	}
	if s.Checks != checks {
		t.Fatalf("sticky unsat across Pop must not re-solve: %d solver checks, want %d", s.Checks, checks)
	}
}

// TestPopRestoresSatisfiability exercises the bound trail: popping a
// frame must undo its tableau bound changes so an earlier satisfiable
// state is recovered — on the *same* retained tableau, not a rebuild.
func TestPopRestoresSatisfiability(t *testing.T) {
	x := logic.Var{Name: "x"}
	s := NewSolver()
	s.Assert(le(x, logic.Const{V: 10}))
	if r := s.Check(); r.Status != StatusSat {
		t.Fatalf("x<=10: got %v", r.Status)
	}
	sx := s.sx
	s.Push()
	s.Assert(ge(x, logic.Const{V: 20}))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("x<=10 && x>=20: got %v", r.Status)
	}
	s.Pop()
	if r := s.Check(); r.Status != StatusSat {
		t.Fatalf("after Pop, x<=10 alone must be sat again: got %v", r.Status)
	}
	if s.sx != sx {
		t.Fatal("Pop within one tableau generation must keep the tableau")
	}
	if r := s.Check(); r.Status != StatusSat {
		t.Fatalf("repeat check: got %v", r.Status)
	}
}

// TestIncrementalChainReusesState asserts a chain x0=0, x1=x0+1, ...
// one link at a time with a check after each, and verifies the solver
// keeps one linearization and one tableau across the whole chain.
func TestIncrementalChainReusesState(t *testing.T) {
	s := NewSolver()
	prev := logic.Term(logic.Const{V: 0})
	for i := 0; i < 30; i++ {
		v := logic.Var{Name: varName(i)}
		s.Assert(logic.Cmp{Op: logic.CmpEq, X: v, Y: logic.Bin{Op: logic.OpAdd, X: prev, Y: logic.Const{V: 1}}})
		if r := s.Check(); r.Status != StatusSat {
			t.Fatalf("link %d: got %v", i, r.Status)
		}
		prev = v
	}
	if s.sx == nil || s.sxAtoms != len(s.atoms) {
		t.Fatalf("tableau must track all %d atoms, has %d", len(s.atoms), s.sxAtoms)
	}
	if !s.warm {
		t.Fatal("solver must be warm after repeated checks")
	}
	// Contradict the end of the chain: only the delta is new work.
	s.Assert(ge(prev, logic.Const{V: 100}))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("x29=30 && x29>=100: got %v", r.Status)
	}
}

func varName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// TestComplexAssertionFallsBack: assertions with residual boolean
// structure (Or after NNF) cannot be decided Sat by the conjunctive
// engine alone; the solver must fall back and still agree with the
// from-scratch verdict.
func TestComplexAssertionFallsBack(t *testing.T) {
	x := logic.Var{Name: "x"}
	s := NewSolver()
	disj := logic.MkOr(
		logic.Cmp{Op: logic.CmpEq, X: x, Y: logic.Const{V: 3}},
		logic.Cmp{Op: logic.CmpEq, X: x, Y: logic.Const{V: 7}},
	)
	s.Assert(disj)
	s.Assert(ge(x, logic.Const{V: 5}))
	r := s.Check()
	if r.Status != StatusSat {
		t.Fatalf("(x=3 || x=7) && x>=5: got %v", r.Status)
	}
	if r.Model["x"] != 7 {
		t.Fatalf("model must pick the feasible disjunct, got x=%d", r.Model["x"])
	}
	// An unsat conjunctive subset refutes the whole set without
	// touching the disjunction.
	s.Push()
	s.Assert(le(x, logic.Const{V: 4}))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("x>=5 && x<=4 with disjunct present: got %v", r.Status)
	}
	s.Pop()
	if r := s.Check(); r.Status != StatusSat {
		t.Fatalf("after Pop: got %v", r.Status)
	}
}

// TestIncrementalNonlinearValidation: nonlinear atoms go through the
// abstraction, so Sat answers must be validated against the originals.
func TestIncrementalNonlinearValidation(t *testing.T) {
	x, y := logic.Var{Name: "x"}, logic.Var{Name: "y"}
	s := NewSolver()
	s.Assert(logic.Cmp{Op: logic.CmpEq, X: logic.Bin{Op: logic.OpMul, X: x, Y: x}, Y: logic.Const{V: 9}})
	s.Assert(ge(x, logic.Const{V: 0}))
	r := s.Check()
	switch r.Status {
	case StatusSat:
		if r.Model["x"]*r.Model["x"] != 9 {
			t.Fatalf("validated model must satisfy x*x=9, got x=%d", r.Model["x"])
		}
	case StatusUnknown:
		// Legal: abstraction may fail to guess the witness.
	default:
		t.Fatalf("x*x=9 && x>=0 cannot be unsat, got %v", r.Status)
	}
	// Incremental disequality splitting on top of persistent state.
	s2 := NewSolver()
	s2.Assert(ge(x, logic.Const{V: 0}))
	s2.Assert(le(x, logic.Const{V: 1}))
	s2.Assert(ge(y, logic.Const{V: 0}))
	s2.Assert(le(y, logic.Const{V: 1}))
	if r := s2.Check(); r.Status != StatusSat {
		t.Fatalf("box: got %v", r.Status)
	}
	s2.Assert(logic.Cmp{Op: logic.CmpNe, X: x, Y: y})
	if r := s2.Check(); r.Status != StatusSat {
		t.Fatalf("box && x!=y: got %v", r.Status)
	}
	s2.Assert(logic.Cmp{Op: logic.CmpEq, X: x, Y: y})
	if r := s2.Check(); r.Status != StatusUnsat {
		t.Fatalf("x!=y && x=y: got %v", r.Status)
	}
}

// TestNestedFramesRestoreExactState drives three nested frames and
// pops them one by one, checking the verdict at every level.
func TestNestedFramesRestoreExactState(t *testing.T) {
	x := logic.Var{Name: "x"}
	s := NewSolver()
	s.Assert(ge(x, logic.Const{V: 0}))
	s.Push()
	s.Assert(le(x, logic.Const{V: 100}))
	s.Push()
	s.Assert(ge(x, logic.Const{V: 50}))
	s.Push()
	s.Assert(le(x, logic.Const{V: 40}))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("level 3: got %v", r.Status)
	}
	s.Pop()
	if r := s.Check(); r.Status != StatusSat {
		t.Fatalf("level 2 (0<=x<=100, x>=50): got %v", r.Status)
	}
	if v := r50(s, t); v < 50 || v > 100 {
		t.Fatalf("level 2 model out of range: %d", v)
	}
	s.Pop()
	s.Pop()
	if s.Assertions() != 1 {
		t.Fatalf("assertions after full unwind: %d, want 1", s.Assertions())
	}
	if r := s.Check(); r.Status != StatusSat {
		t.Fatalf("base level: got %v", r.Status)
	}
}

func r50(s *Solver, t *testing.T) int64 {
	t.Helper()
	r := s.Check()
	if r.Status != StatusSat {
		t.Fatalf("expected sat, got %v", r.Status)
	}
	return r.Model["x"]
}

// TestUnsatCoreIncremental: the core facility must survive the engine
// swap — after an unsat check the minimized core still pins the
// contradicting pair.
func TestUnsatCoreIncremental(t *testing.T) {
	x := logic.Var{Name: "x"}
	s := NewSolver()
	s.Assert(ge(logic.Var{Name: "a"}, logic.Const{V: 0}))
	s.Assert(ge(x, logic.Const{V: 10}))
	s.Assert(ge(logic.Var{Name: "b"}, logic.Const{V: 0}))
	s.Assert(le(x, logic.Const{V: 5}))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("got %v", r.Status)
	}
	fs, idx := s.UnsatCore(context.Background())
	if len(fs) != 2 || len(idx) != 2 {
		t.Fatalf("core size %d, want 2 (%v)", len(fs), idx)
	}
	if idx[0] != 1 || idx[1] != 3 {
		t.Fatalf("core indices %v, want [1 3]", idx)
	}
}
