package smt

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pathslice/internal/logic"
)

func satFormula(v string) logic.Formula {
	return logic.Cmp{Op: logic.CmpGt, X: logic.Var{Name: v}, Y: logic.Const{V: 10}}
}

func unsatFormula(v string) logic.Formula {
	return logic.MkAnd(
		logic.Cmp{Op: logic.CmpGt, X: logic.Var{Name: v}, Y: logic.Const{V: 10}},
		logic.Cmp{Op: logic.CmpLt, X: logic.Var{Name: v}, Y: logic.Const{V: 5}},
	)
}

func TestCacheHitMiss(t *testing.T) {
	ctx := context.Background()
	c := NewCache(0) // default capacity
	f := unsatFormula("x")
	if r := c.SolveCtx(ctx, f, Limits{}); r.Status != StatusUnsat {
		t.Fatalf("status: %v", r.Status)
	}
	if r := c.SolveCtx(ctx, f, Limits{}); r.Status != StatusUnsat {
		t.Fatalf("status on hit: %v", r.Status)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats: %+v, want 1 hit / 1 miss", st)
	}
}

func TestCacheHitsAcrossFreshRenaming(t *testing.T) {
	// The canonical key makes queries minted under different fresh
	// counters share an entry: the second solve must be a hit.
	ctx := context.Background()
	c := NewCache(0)
	if r := c.SolveCtx(ctx, unsatFormula("$f17"), Limits{}); r.Status != StatusUnsat {
		t.Fatalf("status: %v", r.Status)
	}
	if r := c.SolveCtx(ctx, unsatFormula("$f9000"), Limits{}); r.Status != StatusUnsat {
		t.Fatalf("status: %v", r.Status)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("renamed query should hit: %+v", st)
	}
	// A program variable is not renamed: different var, different entry.
	c.SolveCtx(ctx, unsatFormula("x"), Limits{})
	c.SolveCtx(ctx, unsatFormula("y"), Limits{})
	if st := c.Stats(); st.Misses != 3 {
		t.Errorf("program-variable queries must miss separately: %+v", st)
	}
}

// TestCacheHitAllocatesNothing: a lookup serializes its key into a
// pooled buffer and finds the entry by those bytes, so a hit allocates
// nothing; only a miss makes the key string it stores.
func TestCacheHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	ctx := context.Background()
	c := NewCache(0)
	f := logic.MkAnd(unsatFormula("$f17"),
		logic.MkOr(satFormula("x@3"), logic.MkNot(satFormula("$in2"))),
		logic.Cmp{Op: logic.CmpLe, X: logic.Neg{X: logic.Var{Name: "$f17"}}, Y: logic.Bin{Op: logic.OpMul, X: logic.Const{V: -3}, Y: logic.Var{Name: "y"}}})
	if r := c.SolveCtx(ctx, f, Limits{}); r.Status != StatusUnsat {
		t.Fatalf("status: %v", r.Status)
	}
	allocs := testing.AllocsPerRun(100, func() { c.SolveCtx(ctx, f, Limits{}) })
	if st := c.Stats(); st.Hits != 101 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 101 hits and 1 miss", st)
	}
	if allocs != 0 {
		t.Errorf("a cache hit allocated %.1f objects, want 0", allocs)
	}
}

func TestCacheHitOmitsModel(t *testing.T) {
	ctx := context.Background()
	c := NewCache(0)
	first := c.SolveCtx(ctx, satFormula("$in1"), Limits{})
	if first.Status != StatusSat || first.Model == nil {
		t.Fatalf("first solve: %+v", first)
	}
	second := c.SolveCtx(ctx, satFormula("$in2"), Limits{})
	if second.Status != StatusSat {
		t.Fatalf("hit status: %v", second.Status)
	}
	if second.Model != nil {
		t.Error("cache hits answer status only; a model would name stale fresh variables")
	}
}

func TestCacheEvictionBound(t *testing.T) {
	ctx := context.Background()
	const capacity = 32
	c := NewCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.SolveCtx(ctx, logic.Cmp{Op: logic.CmpGt, X: logic.Var{Name: fmt.Sprintf("v%d", i)}, Y: logic.Const{V: int64(i)}}, Limits{})
	}
	st := c.Stats()
	if st.Entries > capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, capacity)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions after overflowing the capacity")
	}
}

func TestCacheConcurrent(t *testing.T) {
	ctx := context.Background()
	c := NewCache(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := unsatFormula(fmt.Sprintf("v%d", i%10))
				if r := c.SolveCtx(ctx, f, Limits{}); r.Status != StatusUnsat {
					t.Errorf("goroutine %d: status %v", g, r.Status)
				}
				if r := c.SolveCtx(ctx, satFormula(fmt.Sprintf("$f%d", g*100+i)), Limits{}); r.Status != StatusSat {
					t.Errorf("goroutine %d: sat status %v", g, r.Status)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

func TestCachedSolveNilCache(t *testing.T) {
	r := CachedSolveCtx(context.Background(), nil, unsatFormula("x"), Limits{})
	if r.Status != StatusUnsat {
		t.Errorf("nil cache must fall through to Solve: %v", r.Status)
	}
}
