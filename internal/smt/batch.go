package smt

import (
	"context"
	"sort"
	"sync"

	"pathslice/internal/faults"
	"pathslice/internal/logic"
)

// Batched solving: the pipeline's feasibility queries arrive in bursts
// of related conjunctions — slice targets along one trace share the
// trace-prefix encoding, a CEGAR refinement round asks about every
// predicate under the same precondition. Solving them one SolveCtx at a
// time re-derives the shared prefix per query. SolveBatchCtx instead:
//
//  1. answers what it can from the cache (same peek/store path and
//     canonical keys as the serial route, so hit/miss accounting and
//     cache contents are indistinguishable);
//  2. groups the remaining queries by connected variable support —
//     queries in different groups constrain disjoint variables, so the
//     groups are independent and fan out onto a bounded worker pool;
//  3. inside each group, orders queries for prefix adjacency and walks
//     them on ONE incremental Solver: Pop back to the longest common
//     asserted prefix, Push the new suffix, Check. Shared prefixes are
//     asserted (and their simplex rows built) once per group instead of
//     once per query — which is what makes batching pay on a single
//     core, where racing goroutines cannot.
//
// Soundness is inherited: every verdict comes from Solver.CheckCtx
// (sticky-Unsat restored by Pop, from-scratch fallback inside), Unknown
// is never cached, and per-query deadlines match the serial path.
type BatchOptions struct {
	// Workers bounds the number of groups solved concurrently;
	// values <= 1 solve groups serially.
	Workers int
	// Cache, when non-nil, is consulted before grouping and receives
	// every definitive verdict under the query's canonical key.
	Cache *Cache
	// Lim applies per query, exactly as it would on the serial path.
	Lim Limits
}

// batchQuery is one pending query: its original formula (for cache
// keys), its flattened interned conjuncts (for prefix sharing), and
// where its result goes.
type batchQuery struct {
	idx  int
	f    logic.Formula
	conj []logic.Formula
	sig  []string // String() of each conjunct, for deterministic ordering
}

// SolveBatchCtx decides each formula in fs, returning results in input
// order. Results match what per-query SolveCtx/Solver runs would
// produce (same status contract; Sat results from cache hits carry no
// model, as everywhere else).
func SolveBatchCtx(ctx context.Context, fs []logic.Formula, opt BatchOptions) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	lim := opt.Lim.withDefaults()
	results := make([]Result, len(fs))

	var pending []*batchQuery
	for i, f := range fs {
		mBatchQueries.Inc()
		if opt.Cache != nil {
			key := logic.Key(f)
			// Keep the serial path's fault surface: one CacheEvict draw
			// per query before its lookup.
			if faults.Should(faults.CacheEvict) {
				opt.Cache.evict(key)
			}
			if st, ok := opt.Cache.peek(key); ok {
				results[i] = Result{Status: st}
				continue
			}
		}
		q := &batchQuery{idx: i, f: f, conj: internedConjuncts(f)}
		q.sig = make([]string, len(q.conj))
		for j, cj := range q.conj {
			q.sig[j] = cj.String()
		}
		pending = append(pending, q)
	}
	if len(pending) == 0 {
		return results
	}

	groups := groupBySupport(pending)
	mBatchGroups.Add(int64(len(groups)))

	solveGroup := func(g []*batchQuery) {
		// Order for prefix adjacency: queries whose conjunct sequences
		// share a prefix become lexicographic neighbours, so the trie
		// walk below pops as little as possible between them.
		sort.SliceStable(g, func(a, b int) bool {
			return lessSig(g[a].sig, g[b].sig)
		})
		s := NewSolverWithLimits(lim)
		var trail []logic.Formula // interned conjuncts currently pushed, one frame each
		for _, q := range g {
			lcp := 0
			for lcp < len(trail) && lcp < len(q.conj) && logic.Equal(trail[lcp], q.conj[lcp]) {
				lcp++
			}
			for len(trail) > lcp {
				s.Pop()
				trail = trail[:len(trail)-1]
			}
			mBatchReused.Add(int64(lcp))
			for _, cj := range q.conj[lcp:] {
				s.Push()
				s.Assert(cj)
				trail = append(trail, cj)
			}
			qctx := ctx
			var cancel context.CancelFunc
			if lim.Deadline > 0 {
				qctx, cancel = context.WithTimeout(ctx, lim.Deadline)
			}
			r := s.CheckCtx(qctx)
			if cancel != nil {
				cancel()
			}
			results[q.idx] = r
			if opt.Cache != nil && r.Status != StatusUnknown {
				opt.Cache.store(logic.Key(q.f), r.Status)
			}
		}
	}

	workers := opt.Workers
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for _, g := range groups {
			solveGroup(g)
		}
		return results
	}
	jobs := make(chan []*batchQuery)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				solveGroup(g)
			}
		}()
	}
	for _, g := range groups {
		jobs <- g
	}
	close(jobs)
	wg.Wait()
	return results
}

// internedConjuncts flattens f's top-level conjunction and interns each
// conjunct, so prefix comparison inside a group is logic.Equal's O(1)
// shared-meta fast path.
func internedConjuncts(f logic.Formula) []logic.Formula {
	var out []logic.Formula
	var walk func(g logic.Formula)
	walk = func(g logic.Formula) {
		if and, ok := g.(logic.And); ok {
			for _, h := range and.Fs {
				walk(h)
			}
			return
		}
		out = append(out, logic.Intern(g))
	}
	walk(f)
	if len(out) == 0 {
		out = append(out, logic.Intern(f))
	}
	return out
}

// groupBySupport partitions queries into connected components of shared
// variable support (union-find over variable names). Queries in
// different components share no variables; variable-free queries form
// singleton groups. Group order follows each component's first query,
// so the partition is deterministic in input order.
func groupBySupport(qs []*batchQuery) [][]*batchQuery {
	parent := make(map[string]string)
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			p = find(p)
			parent[x] = p
		}
		return p
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	qvars := make([][]string, len(qs))
	for i, q := range qs {
		qvars[i] = logic.Vars(q.f)
		for j := 1; j < len(qvars[i]); j++ {
			union(qvars[i][0], qvars[i][j])
		}
	}
	byRoot := make(map[string]int)
	var groups [][]*batchQuery
	for i, q := range qs {
		if len(qvars[i]) == 0 {
			groups = append(groups, []*batchQuery{q})
			continue
		}
		root := find(qvars[i][0])
		gi, ok := byRoot[root]
		if !ok {
			gi = len(groups)
			byRoot[root] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], q)
	}
	return groups
}

// lessSig orders conjunct-signature sequences lexicographically.
func lessSig(a, b []string) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
