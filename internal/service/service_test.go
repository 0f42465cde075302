package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/faults"
	"pathslice/internal/interp"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// srcBug has one feasible error path; srcSafe needs one refinement to
// prove safety; srcLoop is the paper's Figure 1 shape (long unrolled
// candidate path, feasible slice).
const (
	srcBug = `
int a;
void main() {
  int x = 3;
  if (a == 0) {
    error;
  }
}
`
	srcSafe = `
int x = 0;
int a;
void main() {
  if (a >= 0) {
    x = 1;
  }
  if (a >= 0) {
    if (x == 0) {
      error;
    }
  }
}
`
	srcLoop = `
int x;
int a;
void f() { skip; }
void main() {
  for (int i = 1; i <= 40; i = i + 1) {
    f();
  }
  if (a >= 0) {
    if (x == 0) {
      error;
    }
  }
}
`
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestNewLeavesRegistryAlone: building a Server must not switch the
// process-wide metrics registry, or every later metric update in the
// test binary would count, whichever package it is in.
func TestNewLeavesRegistryAlone(t *testing.T) {
	reg := obs.Default()
	defer reg.SetEnabled(reg.Enabled())
	for _, on := range []bool{false, true} {
		reg.SetEnabled(on)
		New(Config{}).Close()
		if got := reg.Enabled(); got != on {
			t.Errorf("registry enabled %v before New, %v after", on, got)
		}
	}
}

func post[T any](t *testing.T, url string, body any) (int, T) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

func postSlice(t *testing.T, ts *httptest.Server, req SliceRequest) SliceResponse {
	t.Helper()
	code, out := post[SliceResponse](t, ts.URL+"/v1/slice", req)
	if code != http.StatusOK {
		t.Fatalf("slice status = %d", code)
	}
	return out
}

func postCheck(t *testing.T, ts *httptest.Server, req CheckRequest) CheckResponse {
	t.Helper()
	code, out := post[CheckResponse](t, ts.URL+"/v1/check", req)
	if code != http.StatusOK {
		t.Fatalf("check status = %d", code)
	}
	return out
}

// TestSliceParity: the service's slice answer is bit-for-bit the
// in-process core.SliceCtx answer — same slice edges, same stats, same
// feasibility verdict.
func TestSliceParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	got := postSlice(t, ts, SliceRequest{Source: srcLoop, Long: true, IncludeSlice: true})

	prog := compile.MustSource(srcLoop)
	sl := core.NewWithOptions(prog, core.Options{Summaries: true})
	target := prog.ErrorLocs()[0]
	path := cfa.WalkLongPath(prog, target, 3, 0)
	res, err := sl.Slice(path)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Stats

	if len(got.Targets) != 1 {
		t.Fatalf("targets = %d, want 1", len(got.Targets))
	}
	tg := got.Targets[0]
	if tg.InputEdges != want.InputEdges || tg.SliceEdges != want.SliceEdges ||
		tg.InputBlocks != want.InputBlocks || tg.SliceBlocks != want.SliceBlocks {
		t.Fatalf("stats mismatch: service %+v, in-process %+v", tg, want)
	}
	var wantEdges []string
	for _, e := range res.Slice {
		wantEdges = append(wantEdges, e.String())
	}
	if fmt.Sprint(tg.Slice) != fmt.Sprint(wantEdges) {
		t.Fatalf("slice mismatch:\nservice    %v\nin-process %v", tg.Slice, wantEdges)
	}
	fr := smt.Solve(sl.TraceFormula(res.Slice))
	wantFeas := map[smt.Status]string{smt.StatusSat: "feasible", smt.StatusUnsat: "infeasible"}[fr.Status]
	if wantFeas == "" {
		wantFeas = "unknown"
	}
	if tg.Feasibility != wantFeas {
		t.Fatalf("feasibility = %q, in-process %q", tg.Feasibility, wantFeas)
	}
	if got.Verdict != VerdictBug || got.ExitCode != ExitBug {
		t.Fatalf("verdict = %q/%d, want bug/3", got.Verdict, got.ExitCode)
	}
}

// TestCheckParity: the service's CEGAR answer matches an in-process
// cegar.CheckCtx run with the same options, counter for counter.
func TestCheckParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	got := postCheck(t, ts, CheckRequest{Source: srcSafe})

	prog := compile.MustSource(srcSafe)
	c := cegar.New(prog, cegar.Options{UseSlicing: true, SlicerOpts: core.Options{Summaries: true}})
	want := c.Check(prog.ErrorLocs()[0])

	if len(got.Targets) != 1 {
		t.Fatalf("targets = %d, want 1", len(got.Targets))
	}
	tg := got.Targets[0]
	if tg.Verdict != want.Verdict.String() {
		t.Fatalf("verdict = %q, in-process %q", tg.Verdict, want.Verdict)
	}
	if tg.Refinements != want.Refinements || tg.Work != want.Work ||
		tg.Predicates != want.Predicates || tg.SolverCalls != want.SolverCalls {
		t.Fatalf("counters mismatch: service %+v, in-process %+v", tg, want)
	}
	if got.Verdict != VerdictOK || got.ExitCode != ExitOK {
		t.Fatalf("verdict = %q/%d, want ok/0", got.Verdict, got.ExitCode)
	}
}

// TestWarmReuse: a second request for the same program is answered
// from resident state — program cache hit, solver-verdict cache hits,
// checker post-memo hits.
func TestWarmReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cold := postSlice(t, ts, SliceRequest{Source: srcLoop, Long: true})
	if cold.Reuse.ProgramCacheHit {
		t.Fatal("first request cannot hit the program cache")
	}
	warm := postSlice(t, ts, SliceRequest{Source: srcLoop, Long: true})
	if !warm.Reuse.ProgramCacheHit {
		t.Fatal("second request must hit the program cache")
	}
	if warm.Reuse.SolverCacheHits == 0 {
		t.Fatal("second request must hit the shared solver cache")
	}

	postCheck(t, ts, CheckRequest{Source: srcSafe})
	warmCheck := postCheck(t, ts, CheckRequest{Source: srcSafe})
	if !warmCheck.Reuse.ProgramCacheHit {
		t.Fatal("second check must hit the program cache")
	}
	if warmCheck.Reuse.PostMemoHits == 0 {
		t.Fatal("second check must hit the persistent abstract-post memo")
	}
	if warmCheck.Verdict != VerdictOK {
		t.Fatalf("warm verdict = %q, want ok (reuse must not change answers)", warmCheck.Verdict)
	}
}

// timedRounds is how many rounds each side of a cold-versus-warm
// timing comparison takes. Each side keeps its fastest round, so
// scheduler noise on a loaded host does not reverse the order: at 30,
// both comparisons passed 300 of 300 runs beside a concurrent
// `go test ./...` on 2 CPUs, with and without -race, where 9 and 15
// rounds still failed under -race (2 and 1 in 300).
const timedRounds = 30

// srcReuse is call-heavy (frame summaries replay) and needs real CEGAR
// work (the post memo fills), so a warm round reuses every layer.
const srcReuse = `
int x;
int a;
void f() { skip; }
void g() { f(); f(); }
void main() {
  for (int i = 1; i <= 60; i = i + 1) { g(); }
  if (a >= 0) {
    if (x == 0) {
      error;
    }
  }
}
`

// TestWarmBeatsCold: resident state must pay for itself in time, not
// only in reuse counters. A slice plus a check of srcReuse on a fresh
// server is a cold round, and the same pair again on that server is a
// warm one. Both sides are timed in one run, so they share the host,
// and cold and warm rounds alternate so that one stall cannot slow
// every round of one side.
func TestWarmBeatsCold(t *testing.T) {
	round := func(ts *httptest.Server) float64 {
		sr := postSlice(t, ts, SliceRequest{Source: srcReuse, Long: true, Unroll: 30})
		cr := postCheck(t, ts, CheckRequest{Source: srcReuse})
		return sr.ElapsedMS + cr.ElapsedMS
	}
	cold, warm := math.Inf(1), math.Inf(1)
	for i := 0; i < timedRounds; i++ {
		_, ts := newTestServer(t, Config{})
		cold = min(cold, round(ts))
		warm = min(warm, round(ts))
	}
	t.Logf("cold %.2f ms, warm %.2f ms (best of %d each)", cold, warm, timedRounds)
	if warm >= cold {
		t.Errorf("warm round (%.2f ms) not faster than cold (%.2f ms)", warm, cold)
	}
}

// TestOverloadShed: with every session slot taken, requests are shed
// with the typed 503 — verdict "undecided", exit code 4, degraded —
// and served normally once a slot frees up.
func TestOverloadShed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	if !s.tryAcquire() {
		t.Fatal("fresh server must have a free slot")
	}

	code, shed := post[ErrorResponse](t, ts.URL+"/v1/slice", SliceRequest{Source: srcBug})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", code)
	}
	if shed.Error != "overloaded" || !shed.Degraded ||
		shed.Verdict != VerdictUndecided || shed.ExitCode != ExitUndecided {
		t.Fatalf("shed body = %+v, want typed overloaded/undecided/4/degraded", shed)
	}

	s.release()
	got := postSlice(t, ts, SliceRequest{Source: srcBug})
	if got.Verdict != VerdictBug {
		t.Fatalf("after release verdict = %q, want bug", got.Verdict)
	}
	st := s.Stats()
	if st.Shed != 1 {
		t.Fatalf("stats.shed = %d, want 1", st.Shed)
	}
}

// TestFaultDegradesNeverWrong: with the fault injector forcing every
// solver query to unknown, the service answers "undecided"/degraded —
// it must never report "ok" for a buggy program or "bug" for a safe
// one under faults.
func TestFaultDegradesNeverWrong(t *testing.T) {
	prev := faults.Install(faults.New(faults.Config{
		Seed:  1,
		Rates: map[faults.Kind]float64{faults.SolverUnknown: 1},
	}))
	defer faults.Install(prev)

	_, ts := newTestServer(t, Config{})

	got := postSlice(t, ts, SliceRequest{Source: srcBug})
	if got.Verdict == VerdictOK {
		t.Fatalf("fault-degraded slice of a buggy program reported %q — wrong verdict", got.Verdict)
	}
	if got.Verdict != VerdictUndecided || got.ExitCode != ExitUndecided || !got.Degraded {
		t.Fatalf("fault-degraded slice = %q/%d degraded=%v, want undecided/4/true",
			got.Verdict, got.ExitCode, got.Degraded)
	}

	chk := postCheck(t, ts, CheckRequest{Source: srcSafe, MaxRefinements: 5})
	if chk.Verdict == VerdictBug {
		t.Fatalf("fault-degraded check of a safe program reported %q — wrong verdict", chk.Verdict)
	}
	if chk.Verdict != VerdictUndecided || !chk.Degraded {
		t.Fatalf("fault-degraded check = %q degraded=%v, want undecided/true", chk.Verdict, chk.Degraded)
	}
}

// TestDeadlineDegrades: an already-expired deadline degrades to a
// sound superset slice and an unknown feasibility verdict.
func TestDeadlineDegrades(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultDeadline: time.Nanosecond})
	got := postSlice(t, ts, SliceRequest{Source: srcLoop, Long: true})
	if got.Verdict == VerdictOK {
		t.Fatalf("deadline-degraded slice reported %q — an expired clock must not prove anything", got.Verdict)
	}
	if !got.Degraded {
		t.Fatal("deadline expiry must mark the response degraded")
	}
	for _, tg := range got.Targets {
		if tg.Feasibility == "infeasible" {
			t.Fatal("deadline expiry cannot prove infeasibility")
		}
	}
}

// TestTraceUpload: a PSTRC trace uploaded as base64 is sliced by
// streaming and matches slicing the same path in memory.
func TestTraceUpload(t *testing.T) {
	prog := compile.MustSource(srcLoop)
	target := prog.ErrorLocs()[0]
	path := cfa.WalkLongPath(prog, target, 3, 0)
	name := filepath.Join(t.TempDir(), "t.pstrc")
	if err := cfa.WriteTraceFile(name, prog, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	got := postSlice(t, ts, SliceRequest{
		Source:       srcLoop,
		TraceB64:     base64.StdEncoding.EncodeToString(raw),
		IncludeSlice: true,
	})

	sl := core.NewWithOptions(prog, core.Options{Summaries: true})
	want, err := sl.Slice(path)
	if err != nil {
		t.Fatal(err)
	}
	var wantEdges []string
	for _, e := range want.Slice {
		wantEdges = append(wantEdges, e.String())
	}
	if len(got.Targets) != 1 {
		t.Fatalf("targets = %d, want 1", len(got.Targets))
	}
	if fmt.Sprint(got.Targets[0].Slice) != fmt.Sprint(wantEdges) {
		t.Fatalf("streamed slice mismatch:\nservice    %v\nin-process %v", got.Targets[0].Slice, wantEdges)
	}
	if got.Verdict != VerdictBug {
		t.Fatalf("trace verdict = %q, want bug", got.Verdict)
	}
}

// TestConcurrentMixed hammers the service with interleaved slice and
// check requests over distinct programs (run under -race via
// RACE_PKGS): verdicts must stay exact for every request.
func TestConcurrentMixed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (w + i) % 3 {
				case 0:
					if got := postSlice(t, ts, SliceRequest{Source: srcBug}); got.Verdict != VerdictBug {
						t.Errorf("srcBug slice verdict = %q", got.Verdict)
					}
				case 1:
					if got := postSlice(t, ts, SliceRequest{Source: srcLoop, Long: true}); got.Verdict != VerdictBug {
						t.Errorf("srcLoop slice verdict = %q", got.Verdict)
					}
				case 2:
					if got := postCheck(t, ts, CheckRequest{Source: srcSafe}); got.Verdict != VerdictOK {
						t.Errorf("srcSafe check verdict = %q", got.Verdict)
					}
				}
				// Interleave interner GC with live traffic: collection
				// must never perturb results (it only loses sharing).
				if i%2 == 0 {
					s.GCNow()
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Programs != 3 {
		t.Fatalf("programs = %d, want 3", st.Programs)
	}
}

// TestInternGC: after enough epoch advances, the service collects
// intern-table entries and keeps counting them.
func TestInternGC(t *testing.T) {
	s, ts := newTestServer(t, Config{InternKeepEpochs: 1})
	postSlice(t, ts, SliceRequest{Source: srcBug})
	total := 0
	for i := 0; i < 3; i++ {
		total += s.GCNow()
	}
	if total == 0 {
		t.Fatal("epoch GC must collect the request's interned formulas")
	}
	if s.Stats().InternCollected != int64(total) {
		t.Fatal("stats must account collected interned nodes")
	}
}

// TestBadInputs: every malformed request gets its typed error.
func TestBadInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSourceBytes: 256})

	cases := []struct {
		name    string
		path    string
		body    string
		status  int
		errKind string
	}{
		{"unknown field", "/v1/slice", `{"source": "void main() { skip; }", "bogus": 1}`, http.StatusBadRequest, "bad_request"},
		{"removed portfolio field", "/v1/slice", `{"source": "void main() { error; }", "portfolio": true}`, http.StatusBadRequest, "bad_request"},
		{"removed summaries field", "/v1/slice", `{"source": "void main() { error; }", "summaries": false}`, http.StatusBadRequest, "bad_request"},
		{"removed solver_workers field", "/v1/check", `{"source": "void main() { error; }", "solver_workers": 2}`, http.StatusBadRequest, "bad_request"},
		{"empty source", "/v1/slice", `{}`, http.StatusBadRequest, "bad_request"},
		{"parse error", "/v1/slice", `{"source": "void main( {"}`, http.StatusUnprocessableEntity, "invalid_program"},
		{"no targets", "/v1/slice", `{"source": "void main() { skip; }"}`, http.StatusUnprocessableEntity, "invalid_program"},
		{"bad base64", "/v1/slice", `{"source": "void main() { error; }", "trace_b64": "!!!"}`, http.StatusBadRequest, "bad_request"},
		{"bad trace", "/v1/slice", `{"source": "void main() { error; }", "trace_b64": "AAAA"}`, http.StatusUnprocessableEntity, "invalid_trace"},
		{"oversized source", "/v1/slice", fmt.Sprintf(`{"source": %q}`, strings.Repeat("int x;\n", 100)), http.StatusRequestEntityTooLarge, "too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || e.Error != tc.errKind {
				t.Fatalf("got %d/%q, want %d/%q (%s)", resp.StatusCode, e.Error, tc.status, tc.errKind, e.Message)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/slice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/slice = %d, want 405", resp.StatusCode)
	}
}

// TestHealthAndStats: the two GET endpoints answer.
func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h HealthResponse
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
	postSlice(t, ts, SliceRequest{Source: srcBug})
	var st StatsResponse
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests < 1 || st.Programs != 1 || st.MaxInflight == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcTraceUpload: a multi-threaded PSTRC02 trace uploaded as
// base64 routes to the two-phase concurrent walk, reports its
// racy-edge structure, and matches the in-process ConcSlice verdict.
func TestConcTraceUpload(t *testing.T) {
	const srcConc = `
int g;
int done;
void wrk() {
  g = 42;
  done = 1;
}
void main() {
  spawn wrk();
  join;
  if (done == 1) {
    if (g == 42) { error; }
  }
}
`
	prog := compile.MustSource(srcConc)
	var tr cfa.ConcTrace
	for seed := uint64(0); seed < 64; seed++ {
		st := interp.NewState(prog, wp.NewAddrMap(prog))
		r := interp.ConcRun(prog, st, interp.ZeroInputs{}, interp.ConcRunOptions{RecordTrace: true, Seed: seed})
		if r.ReachedError {
			tr = r.Trace
			break
		}
	}
	if tr == nil {
		t.Fatal("no error interleaving found")
	}

	_, ts := newTestServer(t, Config{})
	got := postSlice(t, ts, SliceRequest{
		Source:       srcConc,
		TraceB64:     base64.StdEncoding.EncodeToString(cfa.AppendConcTrace(nil, prog, tr)),
		IncludeSlice: true,
	})
	if len(got.Targets) != 1 {
		t.Fatalf("targets = %d, want 1", len(got.Targets))
	}
	tg := got.Targets[0]
	if tg.Threads < 2 || tg.RacyEdges == 0 || tg.Regions == 0 {
		t.Fatalf("concurrent structure missing from response: %+v", tg)
	}
	if got.Verdict != VerdictBug {
		t.Fatalf("verdict = %q, want bug (the recorded interleaving reaches error)", got.Verdict)
	}

	want, err := core.New(prog).ConcSlice(tr)
	if err != nil {
		t.Fatal(err)
	}
	if tg.SliceEdges != want.Stats.SliceEdges || tg.RacyEdges != want.Stats.RacyEdges {
		t.Fatalf("service/in-process divergence: got %d edges %d racy, want %d/%d",
			tg.SliceEdges, tg.RacyEdges, want.Stats.SliceEdges, want.Stats.RacyEdges)
	}
}
