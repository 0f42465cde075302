package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"pathslice/internal/service"
)

// serviceWarmRecord measures what slicerd's resident state buys: the
// same program analyzed twice through the real HTTP handler, cold then
// warm. The warm request must hit the program cache, the shared solver
// cache, and the checker's persistent abstract-post memo, and come
// back faster — cmd/benchdiff gates on exactly that (the comparison is
// within one artifact, so it is same-host by construction).
type serviceWarmRecord struct {
	// ColdMS is the server-side elapsed time of the first slice+check
	// round; WarmMS the best of three repeat rounds.
	ColdMS  float64 `json:"cold_ms"`
	WarmMS  float64 `json:"warm_ms"`
	Speedup float64 `json:"speedup"`
	// Reuse counters observed by the warm round.
	ProgramCacheHit bool  `json:"program_cache_hit"`
	SolverCacheHits int64 `json:"solver_cache_hits"`
	SummaryHits     int64 `json:"summary_hits"`
	PostMemoHits    int64 `json:"post_memo_hits"`
}

// serviceProgSrc is call-heavy (frame summaries replay) and needs real
// CEGAR work (the post memo fills), so both reuse layers show up.
const serviceProgSrc = `
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

func runServiceWarm() (*serviceWarmRecord, error) {
	srv := service.New(service.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	round := func() (float64, *service.SliceResponse, *service.CheckResponse, error) {
		var sr service.SliceResponse
		if err := postJSON(ts.URL+"/v1/slice", service.SliceRequest{
			Source: serviceProgSrc, Long: true, Unroll: 30,
		}, &sr); err != nil {
			return 0, nil, nil, err
		}
		var cr service.CheckResponse
		if err := postJSON(ts.URL+"/v1/check", service.CheckRequest{
			Source: serviceProgSrc,
		}, &cr); err != nil {
			return 0, nil, nil, err
		}
		return sr.ElapsedMS + cr.ElapsedMS, &sr, &cr, nil
	}

	cold, _, _, err := round()
	if err != nil {
		return nil, err
	}
	rec := &serviceWarmRecord{ColdMS: cold}
	for i := 0; i < 3; i++ {
		ms, sr, cr, err := round()
		if err != nil {
			return nil, err
		}
		if rec.WarmMS == 0 || ms < rec.WarmMS {
			rec.WarmMS = ms
		}
		rec.ProgramCacheHit = sr.Reuse.ProgramCacheHit && cr.Reuse.ProgramCacheHit
		rec.SolverCacheHits = sr.Reuse.SolverCacheHits + cr.Reuse.SolverCacheHits
		rec.SummaryHits = sr.Reuse.SummaryHits
		rec.PostMemoHits = cr.Reuse.PostMemoHits
	}
	if rec.WarmMS > 0 {
		rec.Speedup = rec.ColdMS / rec.WarmMS
	}
	return rec, nil
}

// snapshotRestartRecord measures what a warm-state snapshot buys
// across a restart (docs/DEPLOYMENT.md): a warm server saves its
// state, a fresh server restores it, and the restored server's very
// first request is timed against a cold server's very first request.
// cmd/benchdiff gates on the restored request reusing every snapshot
// constituent and beating the cold one (same artifact, same host).
type snapshotRestartRecord struct {
	SnapshotBytes     int64 `json:"snapshot_bytes"`
	RestoredPrograms  int64 `json:"restored_programs"`
	RestoredSummaries int64 `json:"restored_summaries"`
	RestoredVerdicts  int64 `json:"restored_verdicts"`
	DroppedRecords    int64 `json:"dropped_records"`
	// ColdFirstMS/WarmFirstMS are server-side elapsed times of the
	// first slice request on a cold vs snapshot-restored server (best
	// of three full save/restore cycles).
	ColdFirstMS float64 `json:"cold_first_ms"`
	WarmFirstMS float64 `json:"warm_first_ms"`
	Speedup     float64 `json:"speedup"`
	// Reuse counters of the restored server's first request.
	ProgramCacheHit bool  `json:"program_cache_hit"`
	SummaryHits     int64 `json:"summary_hits"`
	SolverCacheHits int64 `json:"solver_cache_hits"`
}

// snapshotProgSrc's callee mutates a variable that is live at the
// error guard, so its frames are summarized — the snapshot carries
// programs, summaries, AND solver verdicts, and the restored first
// request replays all three.
const snapshotProgSrc = `
int x;
int a;
void bump() {
  x = x + 1;
}
void main() {
  x = 0;
  for (int i = 0; i < 40; i = i + 1) { bump(); }
  if (a >= 0) {
    if (x > 100) {
      error;
    }
  }
}
`

func runSnapshotRestart() (*snapshotRestartRecord, error) {
	dir, err := os.MkdirTemp("", "benchjson-snap")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "warm.snap")

	req := service.SliceRequest{Source: snapshotProgSrc, Long: true, Unroll: 30}
	first := func(cfg service.Config) (*service.SliceResponse, *service.Server, error) {
		srv := service.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var sr service.SliceResponse
		if err := postJSON(ts.URL+"/v1/slice", req, &sr); err != nil {
			srv.Close()
			return nil, nil, err
		}
		return &sr, srv, nil
	}

	rec := &snapshotRestartRecord{}
	for cycle := 0; cycle < 3; cycle++ {
		coldResp, warmSrv, err := first(service.Config{})
		if err != nil {
			return nil, err
		}
		// The cold server doubles as the snapshot source: one more
		// request replays the summaries it recorded, then it saves.
		ts := httptest.NewServer(warmSrv.Handler())
		var again service.SliceResponse
		if err := postJSON(ts.URL+"/v1/slice", req, &again); err != nil {
			ts.Close()
			warmSrv.Close()
			return nil, err
		}
		ts.Close()
		if err := warmSrv.SaveSnapshot(snap); err != nil {
			warmSrv.Close()
			return nil, err
		}
		warmSrv.Close()
		fi, err := os.Stat(snap)
		if err != nil {
			return nil, err
		}

		restResp, restSrv, err := first(service.Config{SnapshotPath: snap})
		if err != nil {
			return nil, err
		}
		st := restSrv.Stats().Snapshot
		restSrv.Close()
		if st == nil {
			return nil, fmt.Errorf("restored server reports no snapshot stats")
		}

		if rec.ColdFirstMS == 0 || coldResp.ElapsedMS < rec.ColdFirstMS {
			rec.ColdFirstMS = coldResp.ElapsedMS
		}
		if rec.WarmFirstMS == 0 || restResp.ElapsedMS < rec.WarmFirstMS {
			rec.WarmFirstMS = restResp.ElapsedMS
		}
		rec.SnapshotBytes = fi.Size()
		rec.RestoredPrograms = st.RestoredPrograms
		rec.RestoredSummaries = st.RestoredSummaries
		rec.RestoredVerdicts = st.RestoredVerdicts
		rec.DroppedRecords = st.DroppedRecords
		rec.ProgramCacheHit = restResp.Reuse.ProgramCacheHit
		rec.SummaryHits = restResp.Reuse.SummaryHits
		rec.SolverCacheHits = restResp.Reuse.SolverCacheHits
	}
	if rec.WarmFirstMS > 0 {
		rec.Speedup = rec.ColdFirstMS / rec.WarmFirstMS
	}
	return rec, nil
}

func postJSON(url string, req, resp any) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}
