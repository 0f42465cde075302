package service

// The wire types of the slicerd HTTP API (docs/API.md). Every request
// body is decoded strictly (unknown fields are an error), so the JSON
// examples in the docs are validated against these exact structs by
// cmd/doccheck — the reference cannot drift from the code.

// SliceRequest is the body of POST /v1/slice: slice a candidate path
// to each error location of a MiniC program (or a single uploaded
// PSTRC trace) and decide feasibility of every slice.
type SliceRequest struct {
	// Source is the MiniC program text (required).
	Source string `json:"source"`
	// TraceB64, when set, is a base64-encoded PSTRC trace file recorded
	// against Source — sequential PSTRC01 (cfa.WriteTraceFile) or
	// multi-threaded PSTRC02 (cfa.WriteConcTraceFile). The service
	// slices exactly that trace instead of searching the CFA for
	// candidate paths per target: a sequential trace streams with a
	// bounded frame window; a concurrent trace runs the two-phase
	// cross-thread walk (docs/CONCURRENCY.md) and reports its
	// racy-edge structure.
	TraceB64 string `json:"trace_b64,omitempty"`
	// Long asks for loop-unrolling candidate paths (the DFS-model-
	// checker shape); Unroll bounds the unrolling (default 3).
	Long   bool `json:"long,omitempty"`
	Unroll int  `json:"unroll,omitempty"`
	// EarlyUnsatStop enables the §4.2 early-unsat-stop optimization.
	EarlyUnsatStop bool `json:"early_unsat_stop,omitempty"`
	// SkipFunctions enables the §4.2 function-skipping optimization
	// (sound, loses completeness).
	SkipFunctions bool `json:"skip_functions,omitempty"`
	// DeadlineMS bounds the request's wall-clock time in milliseconds.
	// 0 means the server default; values above the server maximum are
	// clamped. Expiry degrades — larger sound slice, unknown
	// feasibility — and never flips a verdict.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// IncludeSlice asks for the rendered slice edges per target.
	IncludeSlice bool `json:"include_slice,omitempty"`
}

// SliceTarget is the per-error-location outcome inside a
// SliceResponse.
type SliceTarget struct {
	// Target renders the error location ("fn:line").
	Target string `json:"target"`
	// Feasibility is "feasible" (the slice reaches the target: a bug),
	// "infeasible", "unknown", or "unreachable" (no CFA path exists).
	Feasibility string `json:"feasibility"`
	// Degraded reports a deadline expiry or an unanswerable analysis
	// query: the slice is a sound superset of the precise one.
	Degraded     bool    `json:"degraded,omitempty"`
	InputEdges   int     `json:"input_edges"`
	SliceEdges   int     `json:"slice_edges"`
	InputBlocks  int     `json:"input_blocks"`
	SliceBlocks  int     `json:"slice_blocks"`
	RatioPercent float64 `json:"ratio_percent"`
	// EarlyStopped reports an early-unsat stop: the slice prefix was
	// proven unsatisfiable after SolverChecks incremental checks.
	EarlyStopped bool `json:"early_stopped,omitempty"`
	SolverChecks int  `json:"solver_checks,omitempty"`
	// SummaryHits/SummaryMisses count frame-summary lookups — warm
	// across requests for the same program.
	SummaryHits   int `json:"summary_hits"`
	SummaryMisses int `json:"summary_misses"`
	// Threads/RacyEdges/Regions describe a concurrent (PSTRC02) trace's
	// cross-thread structure: thread count, happens-before racy edges,
	// and the instruction regions they cut the total order into. Zero
	// for sequential requests. For concurrent traces the feasibility
	// verdict speaks only for the recorded interleaving.
	Threads   int `json:"threads,omitempty"`
	RacyEdges int `json:"racy_edges,omitempty"`
	Regions   int `json:"regions,omitempty"`
	// Witness is a satisfying initial state when the slice is feasible
	// and the verdict was solved fresh (cache hits carry no model).
	Witness map[string]int64 `json:"witness,omitempty"`
	// Slice holds the rendered slice edges (IncludeSlice only).
	Slice []string `json:"slice,omitempty"`
}

// SliceResponse is the body of a successful POST /v1/slice.
type SliceResponse struct {
	// RequestID is the correlation ID of this session: the caller's
	// X-Request-ID if one was sent, else generated. It is echoed in the
	// X-Request-ID response header and attached to the session's JSONL
	// trace event, so a response can be joined against server-side
	// traces.
	RequestID string `json:"request_id"`
	// ProgramFingerprint is the CFA structure hash (cfa
	// ProgramFingerprint) as 16 hex digits — the key under which the
	// service retains this program's warm state.
	ProgramFingerprint string `json:"program_fingerprint"`
	// Verdict aggregates the targets: "bug" if any slice is feasible,
	// else "undecided" if any verdict is unknown, else "ok".
	Verdict string `json:"verdict"`
	// ExitCode is the CLI-compatible mapping of Verdict: 0 ok, 3 bug,
	// 4 undecided (docs/ROBUSTNESS.md).
	ExitCode int `json:"exit_code"`
	// Degraded is set when any target degraded (deadline expiry or
	// unanswerable analysis query). Degraded answers are still sound.
	Degraded  bool          `json:"degraded"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Reuse     ReuseStats    `json:"reuse"`
	Targets   []SliceTarget `json:"targets"`
}

// CheckRequest is the body of POST /v1/check: run the CEGAR model
// checker (with path slicing in the counterexample analysis) on every
// error location of a MiniC program.
type CheckRequest struct {
	// Source is the MiniC program text (required).
	Source string `json:"source"`
	// UseSlicing, omitted or null, means on (the paper's
	// configuration). Set false for raw counterexample analysis.
	UseSlicing *bool `json:"use_slicing,omitempty"`
	// DFS makes the abstract search depth-first.
	DFS bool `json:"dfs,omitempty"`
	// MaxRefinements, MaxWork and MaxPreds bound the loop (0 keeps the
	// checker defaults).
	MaxRefinements int `json:"max_refinements,omitempty"`
	MaxWork        int `json:"max_work,omitempty"`
	MaxPreds       int `json:"max_preds,omitempty"`
	// DeadlineMS bounds the request's wall-clock time in milliseconds
	// (0 = server default; clamped to the server maximum). Expiry
	// yields "timeout" verdicts — never a wrong one.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// IncludeWitness asks for the rendered witness slice on "error"
	// verdicts.
	IncludeWitness bool `json:"include_witness,omitempty"`
}

// CheckTarget is the per-error-location outcome inside a
// CheckResponse.
type CheckTarget struct {
	// Target renders the error location ("fn:line").
	Target string `json:"target"`
	// Verdict is the checker's verdict: "safe", "error", "timeout",
	// "diverged", or "unknown".
	Verdict     string `json:"verdict"`
	Refinements int    `json:"refinements"`
	Work        int    `json:"work"`
	Predicates  int    `json:"predicates"`
	SolverCalls int64  `json:"solver_calls"`
	// CacheHits counts solver-cache hits during this check — warm
	// across requests (and programs) through the shared cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// PostMemoHits counts abstract-post computations answered from the
	// checker's persistent memo — warm across requests.
	PostMemoHits int64 `json:"post_memo_hits"`
	// WitnessEdges is the length of the feasible witness slice on
	// "error"; Witness renders it (IncludeWitness only).
	WitnessEdges int      `json:"witness_edges,omitempty"`
	Witness      []string `json:"witness,omitempty"`
}

// CheckResponse is the body of a successful POST /v1/check.
type CheckResponse struct {
	// RequestID is the session's correlation ID (see SliceResponse).
	RequestID          string `json:"request_id"`
	ProgramFingerprint string `json:"program_fingerprint"`
	// Verdict aggregates the targets: "bug" if any check found a
	// feasible counterexample, else "undecided" if any check was
	// timeout/diverged/unknown, else "ok".
	Verdict  string `json:"verdict"`
	ExitCode int    `json:"exit_code"`
	// Degraded is set when any target's verdict was weakened by a
	// deadline, budget, or fault (timeout/diverged/unknown).
	Degraded  bool          `json:"degraded"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Reuse     ReuseStats    `json:"reuse"`
	Targets   []CheckTarget `json:"targets"`
}

// ReuseStats reports how much of a request was answered from the
// service's long-lived shared state — the measurable benefit of a
// resident daemon over one-shot CLI runs.
type ReuseStats struct {
	// ProgramCacheHit reports that the program's compiled CFA and
	// analyses (alias, mod-ref, dataflow) were already resident.
	ProgramCacheHit bool `json:"program_cache_hit"`
	// SolverCacheHits counts shared-cache verdict hits during this
	// request.
	SolverCacheHits int64 `json:"solver_cache_hits"`
	// SummaryHits counts frame-summary replays during this request;
	// SummaryContexts is the program's total memoized contexts.
	SummaryHits     int64 `json:"summary_hits"`
	SummaryContexts int   `json:"summary_contexts"`
	// PostMemoHits counts abstract-post memo hits during this request
	// (/v1/check only).
	PostMemoHits int64 `json:"post_memo_hits"`
	// InternedNodes is the current size of the hash-cons intern table
	// (epoch-collected; see docs/PERFORMANCE.md).
	InternedNodes int `json:"interned_nodes"`
}

// ErrorResponse is the body of every non-2xx API answer. Error is a
// stable machine-readable kind; Message is human-readable detail.
// Overload and admission failures carry Degraded semantics: the
// service refuses with "undecided" rather than ever answering wrong.
type ErrorResponse struct {
	// Error is one of "bad_request", "invalid_program",
	// "invalid_trace", "too_large", "overloaded", "draining",
	// "unauthorized", "integrity", "internal", or
	// "method_not_allowed".
	Error   string `json:"error"`
	Message string `json:"message"`
	// RequestID correlates the failure with server-side traces (empty
	// on errors raised before a session was admitted).
	RequestID string `json:"request_id,omitempty"`
	// Degraded, Verdict and ExitCode are set on load-shed and drain
	// (503) responses: verdict "undecided", exit code 4 — the same
	// typed give-up a deadline expiry produces, never a wrong answer.
	Degraded bool   `json:"degraded,omitempty"`
	Verdict  string `json:"verdict,omitempty"`
	ExitCode int    `json:"exit_code,omitempty"`
	// RetryAfterMS hints when shed traffic should retry.
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
}

// HealthResponse is the body of GET /v1/healthz. While draining the
// endpoint answers HTTP 503 with status "draining", so load balancers
// stop routing to an instance that is finishing its in-flight work.
type HealthResponse struct {
	Status   string  `json:"status"` // "ok", or "draining" during shutdown
	Draining bool    `json:"draining,omitempty"`
	UptimeMS float64 `json:"uptime_ms"`
}

// StatsResponse is the body of GET /v1/stats: a point-in-time snapshot
// of the service's shared state and admission counters. The full
// metric catalogue is on the admin port's /metrics endpoint
// (docs/OBSERVABILITY.md).
type StatsResponse struct {
	UptimeMS    float64 `json:"uptime_ms"`
	Programs    int     `json:"programs"`
	MaxPrograms int     `json:"max_programs"`
	Inflight    int     `json:"inflight"`
	MaxInflight int     `json:"max_inflight"`
	// Requests counts admitted API requests; Shed counts requests
	// refused by admission control; Degraded counts responses that
	// carried a degraded (still sound) answer.
	Requests int64 `json:"requests"`
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
	// SolverCache snapshots the shared verdict cache.
	SolverCache SolverCacheStats `json:"solver_cache"`
	// InternedNodes, InternEpoch and InternCollected describe the
	// hash-cons interner and its epoch GC.
	InternedNodes   int    `json:"interned_nodes"`
	InternEpoch     uint64 `json:"intern_epoch"`
	InternCollected int64  `json:"intern_collected"`
	// Draining reports that the server has stopped admitting sessions
	// and is finishing in-flight work (SIGTERM handling).
	Draining bool `json:"draining"`
	// Snapshot describes the warm-state snapshot subsystem; nil when
	// no snapshot path is configured and nothing was restored.
	Snapshot *SnapshotStats `json:"snapshot,omitempty"`
}

// SnapshotStats reports the warm-state snapshot subsystem: what boot
// restored and what the save loop has written (docs/DEPLOYMENT.md).
type SnapshotStats struct {
	// RestoredPrograms/Summaries/Verdicts count warm state accepted
	// from the boot snapshot after verification; DroppedRecords counts
	// records rejected by it (checksum, fingerprint, or structural
	// mismatch — each costs a cache miss, never a wrong answer).
	RestoredPrograms  int64 `json:"restored_programs"`
	RestoredSummaries int64 `json:"restored_summaries"`
	RestoredVerdicts  int64 `json:"restored_verdicts"`
	DroppedRecords    int64 `json:"dropped_records"`
	// Saves counts snapshot files written (periodic + shutdown);
	// LastSaveBytes is the size of the newest one.
	Saves         int64 `json:"saves"`
	LastSaveBytes int64 `json:"last_save_bytes"`
}

// SolverCacheStats mirrors the shared smt cache counters on the wire.
type SolverCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
}

// Verdict strings and exit codes shared with the CLIs
// (docs/ROBUSTNESS.md).
const (
	VerdictOK        = "ok"
	VerdictBug       = "bug"
	VerdictUndecided = "undecided"

	ExitOK        = 0
	ExitInternal  = 1
	ExitUsage     = 2
	ExitBug       = 3
	ExitUndecided = 4
)
