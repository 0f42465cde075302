package smt

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"pathslice/internal/faults"
	"pathslice/internal/logic"
)

func TestUnsatCoreBasic(t *testing.T) {
	s := NewSolver()
	x, y := v("x"), v("y")
	s.Assert(ge(x, c(0)))      // irrelevant
	s.Assert(eq(y, c(5)))      // core
	s.Assert(le(x, c(100)))    // irrelevant
	s.Assert(ne(y, c(5)))      // core
	s.Assert(gt(x, sub(y, y))) // irrelevant
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatalf("status: %s", r.Status)
	}
	core, idx := s.UnsatCore(context.Background())
	if len(core) != 2 {
		t.Fatalf("core size %d (want 2): %v", len(core), core)
	}
	if idx[0] != 1 || idx[1] != 3 {
		t.Errorf("core indices: %v", idx)
	}
	// The core itself must be unsat.
	if r := Solve(logic.MkAnd(core...)); r.Status != StatusUnsat {
		t.Error("core is not unsat")
	}
}

func TestUnsatCoreOnSatIsNil(t *testing.T) {
	s := NewSolver()
	s.Assert(ge(v("x"), c(0)))
	if r := s.Check(); r.Status != StatusSat {
		t.Fatal("should be sat")
	}
	if core, idx := s.UnsatCore(context.Background()); core != nil || idx != nil {
		t.Error("core on sat must be nil")
	}
}

func TestUnsatCoreChain(t *testing.T) {
	// A chain x0=0, x1=x0+1, ..., and a contradiction with only the
	// final element: the core must include the whole defining chain but
	// drop unrelated assertions.
	s := NewSolver()
	s.Assert(eq(v("a"), c(42))) // unrelated
	s.Assert(eq(v("x0"), c(0)))
	s.Assert(eq(v("x1"), add(v("x0"), c(1))))
	s.Assert(eq(v("x2"), add(v("x1"), c(1))))
	s.Assert(eq(v("x2"), c(5)))
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatal("should be unsat")
	}
	core, idx := s.UnsatCore(context.Background())
	if len(core) != 4 {
		t.Fatalf("core: %v", core)
	}
	for _, i := range idx {
		if i == 0 {
			t.Error("unrelated assertion in core")
		}
	}
}

func TestUnsatCoreSingleton(t *testing.T) {
	s := NewSolver()
	s.Assert(ge(v("x"), c(0)))
	s.Assert(logic.False)
	if r := s.Check(); r.Status != StatusUnsat {
		t.Fatal("should be unsat")
	}
	core, _ := s.UnsatCore(context.Background())
	if len(core) != 1 || !logic.Equal(core[0], logic.False) {
		t.Errorf("core: %v", core)
	}
}

// TestUnsatCoreHonoursContext: minimization runs one trial solve per
// member, so the check's context must bound it. With every solve
// stalled for 1s, UnsatCore must return well within the stall with the
// unminimized core — still unsatisfiable — instead of sitting out one
// stall per member: at once when the context was cancelled after the
// check, and at its deadline when that lapses during a trial solve.
func TestUnsatCoreHonoursContext(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration // 0: cancel once the check is done
	}{
		{"cancelled after the check", 0},
		{"deadline lapses during a trial", 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ctx context.Context
			var cancel context.CancelFunc
			if tc.timeout > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), tc.timeout)
			} else {
				ctx, cancel = context.WithCancel(context.Background())
			}
			defer cancel()
			s := NewSolver()
			s.Assert(ge(v("x"), c(0)))
			s.Assert(eq(v("y"), c(5)))
			s.Assert(ne(v("y"), c(5)))
			if r := s.CheckCtx(ctx); r.Status != StatusUnsat {
				t.Fatalf("status: %s", r.Status)
			}
			if tc.timeout == 0 {
				cancel()
			}
			prev := faults.Install(faults.New(faults.Config{
				Seed:  1,
				Rates: map[faults.Kind]float64{faults.SolverStall: 1},
				Stall: time.Second,
			}))
			start := time.Now()
			core, idx := s.UnsatCore(ctx)
			elapsed := time.Since(start)
			faults.Install(prev)
			if elapsed > 500*time.Millisecond {
				t.Fatalf("UnsatCore took %v", elapsed)
			}
			if len(core) != 3 || len(idx) != 3 {
				t.Fatalf("core %v (indices %v), want all 3 assertions", core, idx)
			}
			if r := Solve(logic.MkAnd(core...)); r.Status != StatusUnsat {
				t.Fatalf("returned core is %s, want unsat", r.Status)
			}
		})
	}
}

// plainCoreFilter is the reference for coreFilter: the deletion filter
// that decides each trial whole, as UnsatCore did before the groups.
// In order, member k is dropped if and only if the current core without
// k is unsat; it returns the kept positions.
func plainCoreFilter(ctx context.Context, fs []logic.Formula, solve func([]logic.Formula) Status) []int {
	core := make([]int, len(fs))
	for k := range core {
		core[k] = k
	}
	for k := 0; k < len(core) && ctx.Err() == nil; k++ {
		trial := make([]logic.Formula, 0, len(core)-1)
		for j, i := range core {
			if j != k {
				trial = append(trial, fs[i])
			}
		}
		if solve(trial) == StatusUnsat {
			core = append(core[:k], core[k+1:]...)
			k--
		}
	}
	return core
}

// checkUnsatCore asserts fs in order into a solver under lim and, when
// the list is unsat, minimizes it with coreFilter and with the plain
// reference. It reports a kept core that a solve finds satisfiable, a
// core that differs from the reference's although no solve on either
// side answered Unknown, and an UnsatCore result that differs from the
// filter it wraps. plant runs coreFilter with its stale-unsat plant.
func checkUnsatCore(fs []logic.Formula, lim Limits, plant bool) error {
	s := NewSolverWithLimits(lim)
	for _, f := range fs {
		s.Assert(f)
	}
	if s.Check().Status != StatusUnsat {
		return nil
	}
	ctx := context.Background()
	unknown := false
	solve := func(fs []logic.Formula) Status {
		st := SolveCtx(ctx, logic.MkAnd(fs...), lim).Status
		unknown = unknown || st == StatusUnknown
		return st
	}
	got := coreFilter{solve: solve, staleUnsat: plant}.run(ctx, s.asserted)
	want := plainCoreFilter(ctx, s.asserted, solve)
	core := make([]logic.Formula, len(got))
	for k, i := range got {
		core[k] = s.asserted[i]
	}
	if Solve(logic.MkAnd(core...)).Status == StatusSat {
		return fmt.Errorf("core %v of %v is satisfiable", got, s.asserted)
	}
	if !unknown && !slices.Equal(got, want) {
		return fmt.Errorf("core %v, the plain filter's %v, of %v", got, want, s.asserted)
	}
	if plant {
		return nil
	}
	if _, idx := s.UnsatCore(ctx); !slices.Equal(idx, got) {
		return fmt.Errorf("UnsatCore kept %v, its filter %v, of %v", idx, got, s.asserted)
	}
	return nil
}

// decodeCoreList decodes bytes into an assertion list over 2–4 groups
// of disjoint variables (the first byte picks how many). Each further
// 6-byte record (group, kind, op, a, b, c) appends one member, at most
// 12: with vi the group's variable i%3 and c as an int8,
//
//	kind 0: va op c           kind 3: va*vb op c
//	kind 1: va op vb + c      kind 4: a op c (variable-free)
//	kind 2: va op c || vb op -c   kind 5: va op vb - vc
func decodeCoreList(data []byte) []logic.Formula {
	d := &fuzzDecoder{data: data}
	groups := 2 + int(d.next()%3)
	var fs []logic.Formula
	for len(fs) < 12 && d.pos < len(d.data) {
		g, kind, op := int(d.next())%groups, d.next()%6, logic.CmpOp(d.next()%6)
		a, b, cb := d.next(), d.next(), d.next()
		va := func(i byte) logic.Term { return v(fmt.Sprintf("g%dv%d", g, i%3)) }
		k := int64(int8(cb))
		var f logic.Formula
		switch kind {
		case 0:
			f = logic.Cmp{Op: op, X: va(a), Y: c(k)}
		case 1:
			f = logic.Cmp{Op: op, X: va(a), Y: add(va(b), c(k))}
		case 2:
			f = logic.MkOr(logic.Cmp{Op: op, X: va(a), Y: c(k)}, logic.Cmp{Op: op, X: va(b), Y: c(-k)})
		case 3:
			f = logic.Cmp{Op: op, X: mul(va(a), va(b)), Y: c(k)}
		case 4:
			f = logic.Cmp{Op: op, X: c(int64(int8(a))), Y: c(k)}
		default:
			f = logic.Cmp{Op: op, X: va(a), Y: sub(va(b), va(cb))}
		}
		fs = append(fs, f)
	}
	return fs
}

// Comparison operator bytes of decodeCoreList's records.
const (
	opEq byte = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

// FuzzUnsatCore checks UnsatCore's grouped filter against the plain
// deletion filter on decoded lists: the core of every unsat list must
// not be satisfiable, and it must equal the reference's whenever no
// solve on either side answered Unknown.
func FuzzUnsatCore(f *testing.F) {
	// Two interleaved independent contradictions.
	f.Add([]byte{0,
		0, 0, opEq, 0, 0, 1, 1, 0, opEq, 0, 0, 1,
		0, 0, opEq, 0, 0, 2, 1, 0, opEq, 0, 0, 2})
	// TestUnsatCoreBasic's list: x ≥ 0, y = 5, x ≤ 100, y ≠ 5, x > y - y.
	f.Add([]byte{0,
		0, 0, opGe, 0, 0, 0, 0, 0, opEq, 1, 0, 5, 0, 0, opLe, 0, 0, 100,
		0, 0, opNe, 1, 0, 5, 0, 5, opGt, 0, 1, 1})
	// A chain next to an unrelated member: a = 42, x0 = 0, x1 = x0 + 1,
	// x2 = x1 + 1, x2 = 5.
	f.Add([]byte{0,
		1, 0, opEq, 0, 0, 42, 0, 0, opEq, 0, 0, 0, 0, 1, opEq, 1, 0, 1,
		0, 1, opEq, 2, 1, 1, 0, 0, opEq, 2, 0, 5})
	// The stale-unsat plant's list: a > 0, b = 1, b = 2, a = 1, a = 2.
	f.Add(staleUnsatList)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkUnsatCore(decodeCoreList(data), Limits{MaxLeaves: 200, MaxBBDepth: 12}, false); err != nil {
			t.Fatal(err)
		}
	})
}

// staleUnsatList decodes to a > 0, b = 1, b = 2, a = 1, a = 2, on which
// the plain filter keeps {a = 1, a = 2}.
var staleUnsatList = []byte{0,
	0, 0, opGt, 0, 0, 0, 1, 0, opEq, 0, 0, 1, 1, 0, opEq, 0, 0, 2,
	0, 0, opEq, 0, 0, 1, 0, 0, opEq, 0, 0, 2}

// TestUnsatCoreStaleUnsatPlantIsCaught: a group that loses a member
// because another group was unsat must go back to unknown. A filter
// that keeps it unsat drops every member of staleUnsatList, and the
// fuzz target's check must say so.
func TestUnsatCoreStaleUnsatPlantIsCaught(t *testing.T) {
	fs := decodeCoreList(staleUnsatList)
	if err := checkUnsatCore(fs, Limits{}, false); err != nil {
		t.Fatal(err)
	}
	if err := checkUnsatCore(fs, Limits{}, true); err == nil {
		t.Fatal("the planted stale unsat status went unnoticed")
	} else {
		t.Log(err)
	}
	solve := func(fs []logic.Formula) Status { return Solve(logic.MkAnd(fs...)).Status }
	if got := plainCoreFilter(context.Background(), fs, solve); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("plain filter kept %v, want [3 4]", got)
	}
	if got := (coreFilter{solve: solve, staleUnsat: true}).run(context.Background(), fs); len(got) != 0 {
		t.Fatalf("planted filter kept %v, want none", got)
	}
}
