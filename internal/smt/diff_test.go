package smt

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pathslice/internal/logic"
)

// Differential harness for the incremental solver: random
// Assert/Push/Pop/Check sequences are replayed against both the
// persistent Solver and the from-scratch SolveCtx over the conjunction
// of the currently live assertions. Without injected faults the two
// must agree on every decided verdict, and the incremental side must
// never answer Unknown where the from-scratch side decides (the
// fallback design guarantees incremental is at least as strong).
//
// The formula distribution is biased toward what trace encodings
// produce — conjunctions of linear (in)equalities over a small
// variable pool — with occasional disequalities, disjunctions, and
// nonlinear terms to exercise the lazy-split and fallback paths.

type diffGen struct{ r *rand.Rand }

func (g *diffGen) variable() logic.Term {
	return logic.Var{Name: fmt.Sprintf("v%d", g.r.Intn(6))}
}

func (g *diffGen) linTerm() logic.Term {
	t := logic.Term(logic.Const{V: int64(g.r.Intn(21) - 10)})
	for n := g.r.Intn(3); n > 0; n-- {
		v := g.variable()
		if c := int64(g.r.Intn(5) - 2); c != 1 && c != 0 {
			v = logic.Bin{Op: logic.OpMul, X: logic.Const{V: c}, Y: v}
		}
		t = logic.Bin{Op: logic.OpAdd, X: t, Y: v}
	}
	return t
}

func (g *diffGen) atom() logic.Formula {
	ops := []logic.CmpOp{logic.CmpEq, logic.CmpLt, logic.CmpLe, logic.CmpGt, logic.CmpGe}
	op := ops[g.r.Intn(len(ops))]
	if g.r.Intn(10) == 0 {
		op = logic.CmpNe // occasional disequality: lazy splitting
	}
	x, y := g.linTerm(), g.linTerm()
	if g.r.Intn(12) == 0 {
		x = logic.Bin{Op: logic.OpMul, X: g.variable(), Y: g.variable()} // nonlinear: abstraction
	}
	return logic.Cmp{Op: op, X: x, Y: y}
}

func (g *diffGen) assertion() logic.Formula {
	switch g.r.Intn(10) {
	case 0: // disjunction: forces the Sat fallback path
		return logic.MkOr(g.atom(), g.atom())
	case 1:
		return logic.MkAnd(g.atom(), g.atom())
	case 2:
		return logic.MkNot(g.atom())
	default:
		return g.atom()
	}
}

func TestDifferentialIncrementalVsScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow")
	}
	lim := Limits{MaxLeaves: 400, MaxBBDepth: 16}
	const seqsPerSeed = 240
	seeds := []int64{1, 2, 3, 4, 5}
	total, decided := 0, 0
	for _, seed := range seeds {
		g := &diffGen{r: rand.New(rand.NewSource(seed))}
		for seq := 0; seq < seqsPerSeed; seq++ {
			s := NewSolverWithLimits(lim)
			// Shadow state: live assertions per frame, mirrored by hand.
			shadow := [][]logic.Formula{nil}
			steps := 3 + g.r.Intn(12)
			for step := 0; step < steps; step++ {
				switch op := g.r.Intn(10); {
				case op < 5: // Assert
					f := g.assertion()
					s.Assert(f)
					top := len(shadow) - 1
					shadow[top] = append(shadow[top], f)
				case op < 7: // Push
					top := shadow[len(shadow)-1]
					shadow = append(shadow, append([]logic.Formula(nil), top...))
					s.Push()
				case op < 8: // Pop (no-op at base, like the solver's)
					if len(shadow) > 1 {
						shadow = shadow[:len(shadow)-1]
					}
					s.Pop()
				default: // Check
					total++
					live := shadow[len(shadow)-1]
					ri := s.CheckCtx(context.Background())
					rs := SolveCtx(context.Background(), logic.MkAnd(live...), lim)
					if rs.Status == StatusUnknown {
						continue // scratch gave up; nothing to compare
					}
					decided++
					if ri.Status == StatusUnknown {
						t.Fatalf("seed %d seq %d step %d: incremental Unknown where scratch decided %v\nlive: %v",
							seed, seq, step, rs.Status, live)
					}
					if ri.Status != rs.Status {
						t.Fatalf("seed %d seq %d step %d: incremental %v vs scratch %v\nlive: %v",
							seed, seq, step, ri.Status, rs.Status, live)
					}
					if s.Assertions() != len(live) {
						t.Fatalf("seed %d seq %d: assertion count drifted: %d vs shadow %d",
							seed, seq, s.Assertions(), len(live))
					}
				}
			}
		}
	}
	if total < 1000 {
		t.Fatalf("harness too small: only %d checks executed", total)
	}
	if decided == 0 {
		t.Fatal("harness degenerate: no decided comparisons")
	}
	t.Logf("%d checks compared, %d decided by both sides", total, decided)
}
