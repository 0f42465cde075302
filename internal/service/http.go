package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/core"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
)

// Correlation and integrity headers (docs/API.md). Request IDs tie a
// wire exchange to its JSONL trace events; the checksum headers give
// end-to-end integrity over untrusted transports — a proxy or network
// that flips bytes produces a typed, retryable failure instead of a
// silently altered verdict.
const (
	// HeaderRequestID carries the per-session correlation ID. Clients
	// may supply one (sanitized, truncated to maxRequestIDLen); the
	// server generates one otherwise, and always echoes it.
	HeaderRequestID = "X-Request-ID"
	// HeaderContentSHA256, when a client sends it, is the hex SHA-256
	// of the request body; a mismatch is rejected 400 "integrity".
	HeaderContentSHA256 = "X-Content-SHA256"
	// HeaderChecksumSHA256 is the hex SHA-256 of the response body,
	// set on every JSON response for clients to verify.
	HeaderChecksumSHA256 = "X-Checksum-SHA256"

	maxRequestIDLen = 64
)

// Handler returns the API mux: POST /v1/slice, POST /v1/check,
// GET /v1/healthz, GET /v1/stats (docs/API.md). The admin surface —
// /metrics, /debug/vars, /debug/pprof — is a separate handler
// (obs.Handler), served by cmd/slicerd on its own port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/slice", func(w http.ResponseWriter, r *http.Request) {
		s.session(w, r, s.handleSlice)
	})
	mux.HandleFunc("/v1/check", func(w http.ResponseWriter, r *http.Request) {
		s.session(w, r, s.handleCheck)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "method_not_allowed", Message: "use GET"})
			return
		}
		// healthz needs no auth token: load balancers and kubelets probe
		// it, and it discloses only liveness.
		uptime := float64(time.Since(s.start).Microseconds()) / 1000
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, HealthResponse{
				Status: "draining", Draining: true, UptimeMS: uptime,
			})
			return
		}
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", UptimeMS: uptime})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "method_not_allowed", Message: "use GET"})
			return
		}
		if !s.authorize(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// authorize enforces the bearer-token check when Config.AuthToken is
// set. The comparison is constant-time; a failure is a typed 401 the
// client maps to a non-retryable error.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.AuthToken == "" {
		return true
	}
	got := r.Header.Get("Authorization")
	want := "Bearer " + s.cfg.AuthToken
	if subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1 {
		return true
	}
	mUnauthorized.Inc()
	writeError(w, http.StatusUnauthorized, ErrorResponse{
		Error: "unauthorized", Message: "missing or invalid bearer token",
	})
	return false
}

// requestID returns the session's correlation ID: the client's
// X-Request-ID if it is clean printable ASCII (truncated to
// maxRequestIDLen), or a fresh server-generated one.
func (s *Server) requestID(r *http.Request) string {
	id := r.Header.Get(HeaderRequestID)
	ok := id != ""
	for i := 0; ok && i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			ok = false
		}
	}
	if ok {
		if len(id) > maxRequestIDLen {
			id = id[:maxRequestIDLen]
		}
		return id
	}
	return fmt.Sprintf("%08x-%06d", uint32(s.start.UnixNano()), s.reqSeq.Add(1))
}

// reqID reads the session's correlation ID back off the response
// header session() installed; handlers use it to stamp responses.
func reqID(w http.ResponseWriter) string { return w.Header().Get(HeaderRequestID) }

// session wraps a slice/check handler with the service's admission
// contract: bounded in-flight sessions (overload sheds with a typed
// 503 "undecided" — a sound refusal, never a wrong answer), request
// metrics, and a panic barrier (the analysis layers contain their own
// panics; this is the last resort that keeps one request from taking
// the daemon down).
func (s *Server) session(w http.ResponseWriter, r *http.Request, h func(http.ResponseWriter, *http.Request)) {
	rid := s.requestID(r)
	w.Header().Set(HeaderRequestID, rid)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "method_not_allowed", Message: "use POST"})
		return
	}
	if !s.authorize(w, r) {
		return
	}
	if !s.admit() {
		// Draining is the same sound refusal as overload, under its own
		// typed kind so clients know to retry against a different
		// replica rather than the same one.
		s.shed.Add(1)
		mDrainShed.Inc()
		writeError(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:        "draining",
			Message:      "server is draining; retry elsewhere",
			Degraded:     true,
			Verdict:      VerdictUndecided,
			ExitCode:     ExitUndecided,
			RetryAfterMS: 500,
		})
		return
	}
	defer s.sessions.Done()
	if !s.tryAcquire() {
		s.shed.Add(1)
		mShed.Inc()
		writeError(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:        "overloaded",
			Message:      fmt.Sprintf("all %d session slots busy; retry", s.cfg.MaxInflight),
			Degraded:     true,
			Verdict:      VerdictUndecided,
			ExitCode:     ExitUndecided,
			RetryAfterMS: 100,
		})
		return
	}
	defer s.release()
	s.requests.Add(1)
	mRequests.Inc()
	start := time.Now()
	defer func() {
		mRequestNS.ObserveDuration(time.Since(start))
		obs.Event("service.request", map[string]any{
			"request_id": rid,
			"path":       r.URL.Path,
			"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
		})
		if rec := recover(); rec != nil {
			writeError(w, http.StatusInternalServerError, ErrorResponse{
				Error: "internal", Message: fmt.Sprint(rec),
			})
		}
	}()
	h(w, r)
}

// decode reads one strictly-validated JSON body. Unknown fields are
// rejected so clients notice typos (and docs/API.md examples must
// match the wire types exactly). When the client sent an
// X-Content-SHA256 header, the raw bytes are verified against it
// before any decoding: a body corrupted in transit is rejected with a
// typed 400 "integrity" the client treats as retryable, closing the
// request half of the end-to-end integrity loop.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: "too_large", Message: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes),
			})
			return false
		}
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad_request", Message: err.Error()})
		return false
	}
	if want := r.Header.Get(HeaderContentSHA256); want != "" {
		sum := sha256.Sum256(raw)
		got := hex.EncodeToString(sum[:])
		if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			mIntegrityRejects.Inc()
			writeError(w, http.StatusBadRequest, ErrorResponse{
				Error:   "integrity",
				Message: fmt.Sprintf("request body hash %s does not match %s header", got, HeaderContentSHA256),
			})
			return false
		}
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad_request", Message: err.Error()})
		return false
	}
	return true
}

// requestCtx applies the per-request deadline — the client's
// deadline_ms (clamped to MaxDeadline) or the server default — and
// links the session to the drain context: when Drain gives up waiting,
// cancelling drainCtx cancels every linked session, which then answers
// degraded-but-sound through the PR3 deadline contract.
func (s *Server) requestCtx(r *http.Request, deadlineMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.drainCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

func (s *Server) checkSource(w http.ResponseWriter, src string) bool {
	if src == "" {
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad_request", Message: "source is required"})
		return false
	}
	if int64(len(src)) > s.cfg.MaxSourceBytes {
		writeError(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error: "too_large", Message: fmt.Sprintf("source exceeds %d bytes", s.cfg.MaxSourceBytes),
		})
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// POST /v1/slice

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	var req SliceRequest
	if !s.decode(w, r, &req) || !s.checkSource(w, req.Source) {
		return
	}
	// The clock starts before the program lookup so elapsed_ms charges
	// a cold request its compile + analyses cost — that difference is
	// most of what the warm path saves.
	start := time.Now()
	ps, progHit, err := s.program(req.Source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, ErrorResponse{Error: "invalid_program", Message: err.Error()})
		return
	}
	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()

	sl := ps.slicer(slicerKey{Early: req.EarlyUnsatStop, Skip: req.SkipFunctions})

	cacheBefore := s.cache.Stats()
	resp := SliceResponse{RequestID: reqID(w), ProgramFingerprint: fingerprintHex(ps.fp)}
	resp.Reuse.ProgramCacheHit = progHit

	if req.TraceB64 != "" {
		tgt, herr := s.sliceTrace(ctx, &req, ps, sl)
		if herr != nil {
			writeError(w, herr.status, herr.body)
			return
		}
		resp.Targets = append(resp.Targets, *tgt)
	} else {
		locs := ps.prog.ErrorLocs()
		if len(locs) == 0 {
			writeError(w, http.StatusUnprocessableEntity, ErrorResponse{
				Error: "invalid_program", Message: "no error locations (use `error;` or `assert(...)`)",
			})
			return
		}
		unroll := req.Unroll
		if unroll <= 0 {
			unroll = 3
		}
		for _, target := range locs {
			var path cfa.Path
			if req.Long {
				path = cfa.WalkLongPath(ps.prog, target, unroll, 0)
			}
			if path == nil {
				path = cfa.FindPath(ps.prog, target, cfa.FindOptions{})
			}
			if path == nil {
				resp.Targets = append(resp.Targets, SliceTarget{
					Target: target.String(), Feasibility: "unreachable",
				})
				continue
			}
			res, serr := sl.SliceCtx(ctx, path)
			if serr != nil {
				writeError(w, http.StatusInternalServerError, ErrorResponse{Error: "internal", Message: serr.Error()})
				return
			}
			resp.Targets = append(resp.Targets, *s.sliceTarget(ctx, sl, target.String(), res, req.IncludeSlice))
		}
	}

	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	s.finishSlice(&resp, sl, cacheBefore)
	writeJSON(w, http.StatusOK, resp)
}

// sliceTarget folds one slicing result (and its feasibility verdict,
// solved through the shared cache) into a wire target.
func (s *Server) sliceTarget(ctx context.Context, sl *core.Slicer, target string, res *core.Result, includeSlice bool) *SliceTarget {
	st := res.Stats
	t := &SliceTarget{
		Target:        target,
		Degraded:      res.Degraded,
		InputEdges:    st.InputEdges,
		SliceEdges:    st.SliceEdges,
		InputBlocks:   st.InputBlocks,
		SliceBlocks:   st.SliceBlocks,
		RatioPercent:  100 * st.Ratio(),
		EarlyStopped:  st.EarlyStopped,
		SolverChecks:  st.SolverChecks,
		SummaryHits:   st.SummaryHits,
		SummaryMisses: st.SummaryMisses,
	}
	if includeSlice {
		for _, e := range res.Slice {
			t.Slice = append(t.Slice, e.String())
		}
	}
	switch {
	case res.KnownInfeasible:
		t.Feasibility = "infeasible"
	default:
		// The feasibility solve goes through the shared verdict cache:
		// a repeat of a known slice costs a lookup. Cache hits carry no
		// model, so Witness is only present on fresh feasible solves.
		fr := smt.CachedSolveCtx(ctx, s.cache, sl.TraceFormula(res.Slice), sl.Opts.SolverLimits)
		switch fr.Status {
		case smt.StatusSat:
			t.Feasibility = "feasible"
			t.Witness = fr.Model
		case smt.StatusUnsat:
			t.Feasibility = "infeasible"
		default:
			t.Feasibility = "unknown"
		}
	}
	return t
}

// httpError pairs a status code with its typed body for early returns.
type httpError struct {
	status int
	body   ErrorResponse
}

// sliceTrace slices an uploaded PSTRC trace by streaming it from a
// temporary file with a bounded frame window (docs/PERFORMANCE.md).
func (s *Server) sliceTrace(ctx context.Context, req *SliceRequest, ps *programState, sl *core.Slicer) (*SliceTarget, *httpError) {
	raw, err := base64.StdEncoding.DecodeString(req.TraceB64)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, ErrorResponse{Error: "bad_request", Message: "trace_b64: " + err.Error()}}
	}
	if cfa.IsConcTraceImage(raw) {
		return s.sliceConcTrace(ctx, req, ps, sl, raw)
	}
	tmp, err := os.CreateTemp("", "slicerd-*.pstrc")
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, ErrorResponse{Error: "internal", Message: err.Error()}}
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return nil, &httpError{http.StatusInternalServerError, ErrorResponse{Error: "internal", Message: err.Error()}}
	}
	if err := tmp.Close(); err != nil {
		return nil, &httpError{http.StatusInternalServerError, ErrorResponse{Error: "internal", Message: err.Error()}}
	}
	rd, err := cfa.OpenTraceFile(tmp.Name(), ps.prog)
	if err != nil {
		var tfe *cfa.TraceFormatError
		if errors.As(err, &tfe) {
			return nil, &httpError{http.StatusUnprocessableEntity, ErrorResponse{Error: "invalid_trace", Message: err.Error()}}
		}
		return nil, &httpError{http.StatusInternalServerError, ErrorResponse{Error: "internal", Message: err.Error()}}
	}
	defer rd.Close()
	res, err := sl.SliceStream(ctx, rd)
	if err != nil {
		return nil, &httpError{http.StatusUnprocessableEntity, ErrorResponse{Error: "invalid_trace", Message: err.Error()}}
	}
	target := "?"
	if last := rd.Edge(rd.Len() - 1); last != nil {
		target = last.Dst.String()
	}
	return s.sliceTarget(ctx, sl, target, res, req.IncludeSlice), nil
}

// sliceConcTrace slices an uploaded multi-threaded PSTRC02 trace with
// the two-phase concurrent walk (docs/CONCURRENCY.md). The feasibility
// verdict covers the recorded interleaving only, so early-unsat
// shortcuts never apply here.
func (s *Server) sliceConcTrace(ctx context.Context, req *SliceRequest, ps *programState, sl *core.Slicer, raw []byte) (*SliceTarget, *httpError) {
	tr, err := cfa.DecodeConcTrace(raw, ps.prog)
	if err != nil {
		var tfe *cfa.TraceFormatError
		if errors.As(err, &tfe) {
			return nil, &httpError{http.StatusUnprocessableEntity, ErrorResponse{Error: "invalid_trace", Message: err.Error()}}
		}
		return nil, &httpError{http.StatusInternalServerError, ErrorResponse{Error: "internal", Message: err.Error()}}
	}
	res, err := sl.ConcSliceCtx(ctx, tr)
	if err != nil {
		return nil, &httpError{http.StatusUnprocessableEntity, ErrorResponse{Error: "invalid_trace", Message: err.Error()}}
	}
	target := "?"
	if len(tr) > 0 {
		target = tr[len(tr)-1].Edge.Dst.String()
	}
	st := res.Stats
	t := &SliceTarget{
		Target:       target,
		Degraded:     res.Degraded,
		InputEdges:   st.InputEdges,
		SliceEdges:   st.SliceEdges,
		InputBlocks:  st.InputBlocks,
		SliceBlocks:  st.SliceBlocks,
		RatioPercent: 100 * st.Ratio(),
		Threads:      st.Threads,
		RacyEdges:    st.RacyEdges,
		Regions:      st.Regions,
	}
	if req.IncludeSlice {
		for _, ev := range res.Slice {
			t.Slice = append(t.Slice, fmt.Sprintf("t%d %s", ev.TID, ev.Edge))
		}
	}
	fr, _ := sl.CheckConcFeasibility(ctx, res.Slice)
	switch fr.Status {
	case smt.StatusSat:
		t.Feasibility = "feasible"
		t.Witness = fr.Model
	case smt.StatusUnsat:
		t.Feasibility = "infeasible"
	default:
		t.Feasibility = "unknown"
	}
	return t, nil
}

// finishSlice aggregates verdict, exit code, degradation, and the
// reuse report over the per-target results.
func (s *Server) finishSlice(resp *SliceResponse, sl *core.Slicer, cacheBefore smt.CacheStats) {
	anyBug, anyUnknown := false, false
	for _, t := range resp.Targets {
		switch t.Feasibility {
		case "feasible":
			anyBug = true
		case "unknown":
			anyUnknown = true
		}
		if t.Degraded {
			resp.Degraded = true
		}
		resp.Reuse.SummaryHits += int64(t.SummaryHits)
	}
	if anyUnknown {
		resp.Degraded = true
	}
	switch {
	case anyBug:
		resp.Verdict, resp.ExitCode = VerdictBug, ExitBug
	case anyUnknown:
		resp.Verdict, resp.ExitCode = VerdictUndecided, ExitUndecided
	default:
		resp.Verdict, resp.ExitCode = VerdictOK, ExitOK
	}
	if resp.Degraded {
		s.degraded.Add(1)
		mDegraded.Inc()
	}
	if sl.Summ != nil {
		resp.Reuse.SummaryContexts = sl.Summ.Len()
	}
	s.fillReuse(&resp.Reuse, cacheBefore)
}

// fillReuse completes the shared-state half of a reuse report.
func (s *Server) fillReuse(ru *ReuseStats, cacheBefore smt.CacheStats) {
	ru.SolverCacheHits = s.cache.Stats().Hits - cacheBefore.Hits
}

// ---------------------------------------------------------------------------
// POST /v1/check

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !s.decode(w, r, &req) || !s.checkSource(w, req.Source) {
		return
	}
	start := time.Now()
	ps, progHit, err := s.program(req.Source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, ErrorResponse{Error: "invalid_program", Message: err.Error()})
		return
	}
	locs := ps.prog.ErrorLocs()
	if len(locs) == 0 {
		writeError(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error: "invalid_program", Message: "no error locations (use `error;` or `assert(...)`)",
		})
		return
	}
	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()

	key := checkerKey{
		Slicing:  req.UseSlicing == nil || *req.UseSlicing,
		DFS:      req.DFS,
		MaxRefs:  req.MaxRefinements,
		MaxWork:  req.MaxWork,
		MaxPreds: req.MaxPreds,
	}
	// The checker's counterexample slicer runs with frame summaries on:
	// with warm memo sharing across checks this is now the default
	// configuration (ROADMAP: gcc-scale item).
	box := ps.checker(key, s.cache, core.Options{Summaries: true})

	resp := CheckResponse{RequestID: reqID(w), ProgramFingerprint: fingerprintHex(ps.fp)}
	resp.Reuse.ProgramCacheHit = progHit
	cacheBefore := s.cache.Stats()

	// Checkers are stateful (persistent post memo, per-check scratch):
	// one check at a time per (program, options); concurrent requests
	// for the same pair queue here while other programs proceed.
	box.mu.Lock()
	defer box.mu.Unlock()
	anyBug, anyUndecided := false, false
	for _, target := range locs {
		res, cerr := box.c.CheckCtx(ctx, target)
		if cerr != nil {
			resp.Targets = append(resp.Targets, CheckTarget{
				Target: target.String(), Verdict: "unknown",
			})
			anyUndecided = true
			continue
		}
		t := CheckTarget{
			Target:       target.String(),
			Verdict:      res.Verdict.String(),
			Refinements:  res.Refinements,
			Work:         res.Work,
			Predicates:   res.Predicates,
			SolverCalls:  res.SolverCalls,
			CacheHits:    res.CacheHits,
			CacheMisses:  res.CacheMisses,
			PostMemoHits: res.PostMemoHits,
		}
		switch {
		case res.Verdict == cegar.VerdictUnsafe:
			anyBug = true
			t.WitnessEdges = len(res.Witness)
			if req.IncludeWitness {
				for _, e := range res.Witness {
					t.Witness = append(t.Witness, e.String())
				}
			}
		case !res.Verdict.Decided():
			anyUndecided = true
		}
		resp.Reuse.PostMemoHits += res.PostMemoHits
		resp.Targets = append(resp.Targets, t)
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	switch {
	case anyBug:
		resp.Verdict, resp.ExitCode = VerdictBug, ExitBug
	case anyUndecided:
		resp.Verdict, resp.ExitCode = VerdictUndecided, ExitUndecided
		resp.Degraded = true
	default:
		resp.Verdict, resp.ExitCode = VerdictOK, ExitOK
	}
	if resp.Degraded {
		s.degraded.Add(1)
		mDegraded.Inc()
	}
	s.fillReuse(&resp.Reuse, cacheBefore)
	writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------------
// JSON plumbing

// writeJSON renders v and stamps the response with its body checksum
// (X-Checksum-SHA256) so clients can detect transport corruption. The
// body is buffered first — headers must precede it on the wire.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Wire types marshal by construction; this is unreachable short
		// of memory corruption, and a 500 beats a half-written body.
		http.Error(w, "encoding failure", http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderChecksumSHA256, hex.EncodeToString(sum[:]))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError writes a typed error body, stamping it with the session's
// request ID (installed on the response header by session()) so error
// responses correlate like successes do.
func writeError(w http.ResponseWriter, status int, body ErrorResponse) {
	if body.RequestID == "" {
		body.RequestID = w.Header().Get(HeaderRequestID)
	}
	writeJSON(w, status, body)
}
