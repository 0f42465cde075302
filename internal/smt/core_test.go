package smt

import (
	"context"
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
