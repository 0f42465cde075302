package smt

import "pathslice/internal/obs"

// Registry metrics for the decision procedure. Handles are resolved
// once at init; updates are no-ops while the default registry is
// disabled (see internal/obs). The catalogue is documented in
// docs/OBSERVABILITY.md.
var (
	mSolves        = obs.Default().Counter("smt_solves_total")
	mSat           = obs.Default().Counter("smt_sat_total")
	mUnsat         = obs.Default().Counter("smt_unsat_total")
	mUnknown       = obs.Default().Counter("smt_unknown_total")
	mLeafChecks    = obs.Default().Counter("smt_leaf_checks_total")
	mCaseSplits    = obs.Default().Counter("smt_case_splits_total")
	mModelValid    = obs.Default().Counter("smt_model_validations_total")
	mSimplexPivots = obs.Default().Counter("smt_simplex_pivots_total")
	mSolveNS       = obs.Default().Histogram("smt_solve_ns")

	mCacheHits      = obs.Default().Counter("smt_cache_hits_total")
	mCacheMisses    = obs.Default().Counter("smt_cache_misses_total")
	mCacheEvictions = obs.Default().Counter("smt_cache_evictions_total")

	// mDeadlineExceeded counts solves that returned StatusUnknown
	// because their context was cancelled or its deadline expired.
	mDeadlineExceeded = obs.Default().Counter("smt_deadline_exceeded_total")

	// Incremental-solver metrics (incremental.go).
	// mIncrementalReuse counts Check calls answered from persistent
	// state: sticky-Unsat short-circuits plus warm tableau reuses.
	mIncrementalReuse = obs.Default().Counter("smt_incremental_reuse_total")
	// mWarmStartHits counts warm-started simplex checks that reached a
	// verdict within the re-pivot budget; mWarmStartRebuilds counts
	// budget exhaustions that forced a from-scratch tableau rebuild.
	mWarmStartHits     = obs.Default().Counter("smt_warm_start_hits_total")
	mWarmStartRebuilds = obs.Default().Counter("smt_warm_start_rebuilds_total")

	// Batch metrics (batch.go). mBatchQueries counts queries decided
	// through SolveBatchCtx; groups counts support-disjoint groups
	// formed; reused counts asserted conjuncts answered from a shared
	// prefix already on the group solver's trail (the batch-mode
	// analogue of warm reuse). The series keep their
	// smt_portfolio_batch_* names so they line up with the
	// solver_counters of the committed BENCH_PR*.json artifacts.
	mBatchQueries = obs.Default().Counter("smt_portfolio_batch_total")
	mBatchGroups  = obs.Default().Counter("smt_portfolio_batch_groups_total")
	mBatchReused  = obs.Default().Counter("smt_portfolio_batch_reused_total")
)
