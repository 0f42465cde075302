package smt

import (
	"context"
	"math/rand"
	"testing"

	"pathslice/internal/logic"
)

// batchLim mirrors the differential harness limits: small enough to
// exercise give-ups, large enough to decide most queries.
var batchLim = Limits{MaxLeaves: 400, MaxBBDepth: 16, MaxModels: 8}

// TestBatchParity: SolveBatchCtx must agree with per-query SolveCtx on
// every query SolveCtx decides — across worker counts and with or
// without a cache — and a second batched run over a populated cache
// must be answered entirely from it.
func TestBatchParity(t *testing.T) {
	g := &diffGen{r: rand.New(rand.NewSource(11))}
	var fs []logic.Formula
	for i := 0; i < 120; i++ {
		n := 1 + g.r.Intn(6)
		conj := make([]logic.Formula, n)
		for j := range conj {
			conj[j] = g.assertion()
		}
		fs = append(fs, logic.MkAnd(conj...))
	}
	ref := make([]Result, len(fs))
	for i, f := range fs {
		ref[i] = SolveCtx(context.Background(), f, batchLim)
	}
	for _, workers := range []int{1, 3} {
		for _, withCache := range []bool{false, true} {
			var cache *Cache
			if withCache {
				cache = NewCache(0)
			}
			opt := BatchOptions{Workers: workers, Cache: cache, Lim: batchLim}
			got := SolveBatchCtx(context.Background(), fs, opt)
			if len(got) != len(fs) {
				t.Fatalf("workers=%d cache=%v: %d results for %d queries", workers, withCache, len(got), len(fs))
			}
			for i := range fs {
				if ref[i].Status == StatusUnknown {
					continue
				}
				if got[i].Status == StatusUnknown {
					t.Fatalf("workers=%d cache=%v query %d: batch Unknown where SolveCtx decided %v",
						workers, withCache, i, ref[i].Status)
				}
				if got[i].Status != ref[i].Status {
					t.Fatalf("workers=%d cache=%v query %d: batch %v vs SolveCtx %v\nf: %v",
						workers, withCache, i, got[i].Status, ref[i].Status, fs[i])
				}
			}
			if !withCache {
				continue
			}
			// The batch must have stored its definitive verdicts under
			// the canonical keys: a re-run misses only on queries that
			// stayed Unknown (Unknown is never cached).
			unknowns := int64(0)
			for i := range fs {
				if got[i].Status == StatusUnknown {
					unknowns++
				}
			}
			before := cache.Stats()
			again := SolveBatchCtx(context.Background(), fs, opt)
			after := cache.Stats()
			for i := range fs {
				if got[i].Status != StatusUnknown && again[i].Status != got[i].Status {
					t.Fatalf("rerun query %d flipped %v -> %v", i, got[i].Status, again[i].Status)
				}
			}
			if misses := after.Misses - before.Misses; misses > unknowns {
				t.Fatalf("rerun over a populated cache took %d misses, want <= %d (the Unknowns)",
					misses, unknowns)
			}
			if after.Hits <= before.Hits {
				t.Fatal("rerun over a populated cache recorded no hits")
			}
		}
	}
}

// TestBatchGrouping: support-disjoint queries must land in separate
// groups; entangled ones share a group.
func TestBatchGrouping(t *testing.T) {
	mk := func(f logic.Formula) *batchQuery { return &batchQuery{f: f} }
	qs := []*batchQuery{
		mk(eq(v("a"), c(1))),
		mk(logic.MkAnd(eq(v("a"), c(2)), eq(v("b"), c(3)))), // entangles a,b
		mk(eq(v("z"), c(4))),
		mk(eq(v("b"), c(5))),
		mk(logic.Bool(logic.True)), // variable-free: singleton group
	}
	groups := groupBySupport(qs)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3 ({a,b}, {z}, {})", len(groups))
	}
	sizes := map[int]int{}
	for _, g := range groups {
		sizes[len(g)]++
	}
	if sizes[3] != 1 || sizes[1] != 2 {
		t.Fatalf("group sizes %v, want one group of 3 and two singletons", sizes)
	}
}
