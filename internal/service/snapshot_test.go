package service

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// srcCalls is the summary-bearing workload: the callee mutates a
// variable that is live at the error guard, so every taken return edge
// runs through the frame-summary table (irrelevant callees like
// srcLoop's `f() { skip; }` never do — their returns aren't taken).
const srcCalls = `
int x;
int a;
void bump() {
  x = x + 1;
}
void main() {
  x = 0;
  for (int i = 0; i < 12; i = i + 1) {
    bump();
  }
  if (a >= 0) {
    if (x > 100) {
      error;
    }
  }
}
`

// snapServer pairs a Server with its test listener so helpers can
// reach both.
type snapServer struct {
	s  *Server
	ts *httptest.Server
}

func newSnapServer(t *testing.T, cfg Config) *snapServer {
	s, ts := newTestServer(t, cfg)
	return &snapServer{s: s, ts: ts}
}

// warmUp drives enough traffic to populate every snapshot constituent:
// three programs in the LRU, frame summaries for srcCalls (its
// call-heavy long path), and Sat/Unsat verdicts in the shared solver
// cache.
func warmUp(t *testing.T, sv *snapServer) {
	t.Helper()
	postSlice(t, sv.ts, SliceRequest{Source: srcCalls, Long: true})
	postSlice(t, sv.ts, SliceRequest{Source: srcCalls, Long: true}) // records + replays summaries
	postSlice(t, sv.ts, SliceRequest{Source: srcBug})
	postSlice(t, sv.ts, SliceRequest{Source: srcSafe})
}

// sliceKeyResponse strips a SliceResponse down to the fields that must
// be bit-identical between a cold server and a snapshot-restored one:
// the verdicts and the slices themselves. Timing, request IDs, and
// reuse/warmth counters are expected to differ — that difference is
// the snapshot working.
type sliceKeyResponse struct {
	Verdict  string
	ExitCode int
	Targets  []sliceKeyTarget
}

type sliceKeyTarget struct {
	Target      string
	Feasibility string
	InputEdges  int
	SliceEdges  int
	InputBlocks int
	SliceBlocks int
	Slice       string
}

func keyOf(resp SliceResponse) sliceKeyResponse {
	k := sliceKeyResponse{Verdict: resp.Verdict, ExitCode: resp.ExitCode}
	for _, tgt := range resp.Targets {
		k.Targets = append(k.Targets, sliceKeyTarget{
			Target:      tgt.Target,
			Feasibility: tgt.Feasibility,
			InputEdges:  tgt.InputEdges,
			SliceEdges:  tgt.SliceEdges,
			InputBlocks: tgt.InputBlocks,
			SliceBlocks: tgt.SliceBlocks,
			Slice:       fmt.Sprint(tgt.Slice),
		})
	}
	return k
}

func TestSnapshotRoundTripWarmsEverything(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "warm.snap")

	warm := newSnapServer(t, Config{})
	warmUp(t, warm)
	if err := warm.s.SaveSnapshot(snap); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	restored := newSnapServer(t, Config{SnapshotPath: snap})
	st := restored.s.Stats().Snapshot
	if st == nil {
		t.Fatal("restored server reports no snapshot stats")
	}
	if st.RestoredPrograms != 3 {
		t.Fatalf("restored programs = %d, want 3", st.RestoredPrograms)
	}
	if st.RestoredSummaries == 0 {
		t.Fatal("no frame summaries restored (srcCalls's long path records them)")
	}
	if st.RestoredVerdicts == 0 {
		t.Fatal("no solver verdicts restored")
	}
	if st.DroppedRecords != 0 {
		t.Fatalf("clean snapshot dropped %d records", st.DroppedRecords)
	}

	// The very first request must already be warm on every axis the
	// snapshot covers: program LRU, frame summaries, solver verdicts.
	first := postSlice(t, restored.ts, SliceRequest{Source: srcCalls, Long: true})
	if !first.Reuse.ProgramCacheHit {
		t.Fatal("first request after restore missed the program cache")
	}
	if first.Reuse.SummaryHits == 0 {
		t.Fatal("first request after restore replayed no restored summaries")
	}
	if first.Reuse.SolverCacheHits == 0 {
		t.Fatal("first request after restore hit no restored solver verdicts")
	}

	// And restoration must not change any answer: bit-identical
	// verdicts and slices vs a cold server.
	cold := newSnapServer(t, Config{})
	for _, src := range []string{srcCalls, srcBug, srcSafe} {
		req := SliceRequest{Source: src, Long: src == srcCalls, IncludeSlice: true}
		got := keyOf(postSlice(t, restored.ts, req))
		want := keyOf(postSlice(t, cold.ts, req))
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("restored server diverged from cold server:\n got %+v\nwant %+v", got, want)
		}
	}
}

// legacySnapFile is the snapshot payload as written by binaries that
// still had the solver portfolio: identical to snapFile except that
// each table's slicerKey carried a Portfolio field. gob matches struct
// fields by name and skips ones the decoder's type lacks, so the
// current reader must accept these files unchanged.
type legacySnapFile struct {
	Version  int
	SavedAt  int64
	Programs []legacySnapProgram
	Verdicts []snapVerdict
}

type legacySnapProgram struct {
	Key         string
	Fingerprint uint64
	Source      string
	Tables      []legacySnapTable
}

type legacySnapTable struct {
	Opts legacySlicerKey
	Sums []snapSummary
}

type legacySlicerKey struct {
	Early, Skip, Summaries bool
	Portfolio              bool
}

// TestSnapshotRestoresLegacySlicerKey: a snapshot whose summary tables
// are keyed by the legacy slicerKey (Portfolio on, the old slicerd
// default) restores every summary and verdict with zero dropped
// records, so removing the field needed no snapVersion bump.
func TestSnapshotRestoresLegacySlicerKey(t *testing.T) {
	warm := newSnapServer(t, Config{})
	warmUp(t, warm)
	cur := warm.s.collectSnapshot()

	old := legacySnapFile{Version: cur.Version, SavedAt: cur.SavedAt, Verdicts: cur.Verdicts}
	summaries := 0
	for _, sp := range cur.Programs {
		op := legacySnapProgram{Key: sp.Key, Fingerprint: sp.Fingerprint, Source: sp.Source}
		for _, st := range sp.Tables {
			k := st.Opts
			op.Tables = append(op.Tables, legacySnapTable{
				Opts: legacySlicerKey{Early: k.Early, Skip: k.Skip, Summaries: k.Summaries, Portfolio: true},
				Sums: st.Sums,
			})
			summaries += len(st.Sums)
		}
		old.Programs = append(old.Programs, op)
	}
	if summaries == 0 || len(old.Verdicts) == 0 {
		t.Fatalf("warm-up left nothing to restore: %d summaries, %d verdicts", summaries, len(old.Verdicts))
	}
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "legacy.snap")
	if err := os.WriteFile(snap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	restored := newSnapServer(t, Config{SnapshotPath: snap})
	st := restored.s.Stats().Snapshot
	if st == nil {
		t.Fatal("restored server reports no snapshot stats")
	}
	if st.DroppedRecords != 0 {
		t.Fatalf("legacy-layout snapshot dropped %d records", st.DroppedRecords)
	}
	if st.RestoredPrograms != int64(len(old.Programs)) || st.RestoredSummaries != int64(summaries) ||
		st.RestoredVerdicts != int64(len(old.Verdicts)) {
		t.Fatalf("restored %d programs, %d summaries, %d verdicts; want %d, %d, %d",
			st.RestoredPrograms, st.RestoredSummaries, st.RestoredVerdicts,
			len(old.Programs), summaries, len(old.Verdicts))
	}
	req := SliceRequest{Source: srcCalls, Long: true, IncludeSlice: true}
	first := postSlice(t, restored.ts, req)
	if first.Reuse.SummaryHits == 0 || first.Reuse.SolverCacheHits == 0 {
		t.Fatalf("first request after restore reused %d summaries and %d verdicts, want both > 0",
			first.Reuse.SummaryHits, first.Reuse.SolverCacheHits)
	}
	if got, want := keyOf(first), keyOf(postSlice(t, warm.ts, req)); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("restored server diverged from the server that wrote the snapshot:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotDeliberateCorruption(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "warm.snap")
	warm := newSnapServer(t, Config{})
	warmUp(t, warm)
	if err := warm.s.SaveSnapshot(snap); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	pristine, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	cold := newSnapServer(t, Config{})
	coldBug := keyOf(postSlice(t, cold.ts, SliceRequest{Source: srcBug, IncludeSlice: true}))
	coldSafe := keyOf(postSlice(t, cold.ts, SliceRequest{Source: srcSafe, IncludeSlice: true}))

	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad-magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xff; return c }},
		{"bad-version", func(b []byte) []byte { c := clone(b); c[len(snapMagic)+2] ^= 0xff; return c }},
		{"truncated-half", func(b []byte) []byte { return clone(b)[:len(b)/2] }},
		{"truncated-tail", func(b []byte) []byte { return clone(b)[: len(b)-7 : len(b)-7] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"garbage", func(b []byte) []byte { return []byte("not a snapshot at all") }},
		{"flip-every-97th", func(b []byte) []byte {
			c := clone(b)
			for i := len(snapMagic); i < len(c); i += 97 {
				c[i] ^= 0x55
			}
			return c
		}},
		{"flip-payload-middle", func(b []byte) []byte { c := clone(b); c[len(c)/2] ^= 0x01; return c }},
		{"flip-near-end", func(b []byte) []byte { c := clone(b); c[len(c)-20] ^= 0x80; return c }},
		{"zero-run", func(b []byte) []byte {
			c := clone(b)
			for i := len(c) / 3; i < len(c)/3+64 && i < len(c); i++ {
				c[i] = 0
			}
			return c
		}},
	}

	sawDrop := false
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(snap, tc.mutate(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			// Boot must survive any corruption (no panic, no error
			// surfaced to New) ...
			s := newSnapServer(t, Config{SnapshotPath: snap})
			if st := s.s.Stats().Snapshot; st != nil && st.DroppedRecords > 0 {
				sawDrop = true
			}
			// ... and answers must be exactly the cold server's:
			// whatever survived restore can only be valid records.
			if got := keyOf(postSlice(t, s.ts, SliceRequest{Source: srcBug, IncludeSlice: true})); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", coldBug) {
				t.Fatalf("corrupt snapshot changed the buggy program's answer:\n got %+v\nwant %+v", got, coldBug)
			}
			if got := keyOf(postSlice(t, s.ts, SliceRequest{Source: srcSafe, IncludeSlice: true})); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", coldSafe) {
				t.Fatalf("corrupt snapshot changed the safe program's answer:\n got %+v\nwant %+v", got, coldSafe)
			}
		})
	}
	if !sawDrop {
		t.Fatal("no corruption variant dropped a record — the verification never engaged")
	}

	// A stale-but-intact snapshot for *different source text* must not
	// attach state to the wrong program: rewrite the pristine file,
	// boot a server, and confirm a changed program recompiles fresh.
	if err := os.WriteFile(snap, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newSnapServer(t, Config{SnapshotPath: snap})
	changed := srcCalls + "\n// changed\n"
	resp := postSlice(t, s.ts, SliceRequest{Source: changed, Long: true})
	if resp.Reuse.ProgramCacheHit {
		t.Fatal("changed source must not hit restored program state")
	}
}

func TestSnapshotPeriodicLoop(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "warm.snap")
	s := newSnapServer(t, Config{SnapshotPath: snap, SnapshotInterval: 20 * time.Millisecond})
	postSlice(t, s.ts, SliceRequest{Source: srcBug})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic loop never wrote a snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.s.Stats().Snapshot; st == nil || st.Saves == 0 || st.LastSaveBytes == 0 {
		t.Fatalf("snapshot stats don't reflect the periodic save: %+v", st)
	}
}

// TestRestartRecoveryUnderLoad is the mid-load kill/restart scenario:
// concurrent traffic, a drain racing it, a snapshot on the way down,
// and a restore that must (a) report warm-hit counters and (b) answer
// bit-identically to a cold server. Runs under -race via `make race`.
func TestRestartRecoveryUnderLoad(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "warm.snap")
	s1 := newSnapServer(t, Config{SnapshotPath: snap, SnapshotInterval: 10 * time.Millisecond, MaxInflight: 16})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				src := srcCalls
				if (g+i)%2 == 1 {
					src = srcBug
				}
				// Raw post: mid-drain requests legitimately answer a
				// typed 503; both outcomes are fine, wrong verdicts
				// are not.
				code, resp := post[SliceResponse](t, s1.ts.URL+"/v1/slice", SliceRequest{Source: src, Long: src == srcCalls})
				if code == http.StatusOK && src == srcBug && resp.Verdict == VerdictOK {
					t.Errorf("load goroutine %d: buggy program answered ok", g)
				}
			}
		}(g)
	}
	// Kill mid-load: drain while the goroutines are still posting.
	time.Sleep(15 * time.Millisecond)
	s1.s.Drain(2 * time.Second)
	wg.Wait()
	if err := s1.s.SaveSnapshot(snap); err != nil {
		t.Fatalf("shutdown snapshot: %v", err)
	}

	s2 := newSnapServer(t, Config{SnapshotPath: snap})
	st := s2.s.Stats().Snapshot
	if st == nil || st.RestoredPrograms == 0 || st.RestoredVerdicts == 0 {
		t.Fatalf("restart restored nothing: %+v", st)
	}
	first := postSlice(t, s2.ts, SliceRequest{Source: srcCalls, Long: true})
	if !first.Reuse.ProgramCacheHit {
		t.Fatal("warm-hit counter: first request after restart missed the program cache")
	}

	cold := newSnapServer(t, Config{})
	for _, src := range []string{srcCalls, srcBug} {
		req := SliceRequest{Source: src, Long: src == srcCalls, IncludeSlice: true}
		got := keyOf(postSlice(t, s2.ts, req))
		want := keyOf(postSlice(t, cold.ts, req))
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("restored server diverged from cold server:\n got %+v\nwant %+v", got, want)
		}
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }
