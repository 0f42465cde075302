// Package service implements slicerd, a long-running slice/verify
// daemon (cmd/slicerd, docs/API.md, docs/DEPLOYMENT.md). One-shot CLI
// runs pay the whole pipeline — parse, typecheck, CFA build, alias/
// mod-ref/dataflow analyses, solver warm-up — per invocation and then
// throw the hot state away. The service keeps it:
//
//   - a fingerprint-keyed LRU of program states: compiled CFAs with
//     their analyses, per-option core.Slicer instances (whose
//     summ.Table frame summaries warm up across requests), and
//     per-option cegar.Checker instances whose content-keyed
//     abstract-post memo persists across checks;
//   - one shared, sharded smt.Cache of solver verdicts, used by both
//     the CEGAR abstract post and the slice-feasibility path (verdicts
//     are pure facts about formulas, so sharing across programs is
//     sound).
//
// Admission control repurposes the PR3 deadline/degradation contract
// (docs/ROBUSTNESS.md): at most MaxInflight sessions run concurrently;
// excess traffic is shed with a typed 503 whose body says "undecided"
// — the same sound give-up a deadline expiry produces — and every
// request runs under a per-request deadline. The service can refuse or
// degrade, but never answer wrong.
package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
)

// Registry metrics for the service (see docs/OBSERVABILITY.md).
var (
	mRequests      = obs.Default().Counter("slicerd_requests_total")
	mShed          = obs.Default().Counter("slicerd_load_shed_total")
	mDegraded      = obs.Default().Counter("slicerd_degraded_total")
	mProgHits      = obs.Default().Counter("slicerd_program_cache_hits_total")
	mProgMisses    = obs.Default().Counter("slicerd_program_cache_misses_total")
	mProgEvictions = obs.Default().Counter("slicerd_program_evictions_total")
	mInflight      = obs.Default().Gauge("slicerd_inflight")
	mPrograms      = obs.Default().Gauge("slicerd_programs")
	mRequestNS     = obs.Default().Histogram("slicerd_request_ns")

	mDraining          = obs.Default().Gauge("slicerd_draining")
	mDrainShed         = obs.Default().Counter("slicerd_drain_shed_total")
	mSnapSaves         = obs.Default().Counter("slicerd_snapshot_saves_total")
	mSnapSaveErrors    = obs.Default().Counter("slicerd_snapshot_save_errors_total")
	mSnapBytes         = obs.Default().Gauge("slicerd_snapshot_bytes")
	mSnapRestPrograms  = obs.Default().Counter("slicerd_snapshot_restored_programs_total")
	mSnapRestSummaries = obs.Default().Counter("slicerd_snapshot_restored_summaries_total")
	mSnapRestVerdicts  = obs.Default().Counter("slicerd_snapshot_restored_verdicts_total")
	mSnapDropped       = obs.Default().Counter("slicerd_snapshot_dropped_total")
	mUnauthorized      = obs.Default().Counter("slicerd_unauthorized_total")
	mIntegrityRejects  = obs.Default().Counter("slicerd_integrity_rejects_total")
)

// Config tunes the daemon. Zero values take the defaults below; see
// docs/DEPLOYMENT.md for capacity guidance.
type Config struct {
	// MaxInflight bounds concurrently admitted slice/check sessions;
	// excess requests are shed with a typed 503 (default 8).
	MaxInflight int
	// DefaultDeadline applies to requests that set no deadline_ms
	// (default 30s); MaxDeadline clamps requested deadlines (default
	// 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxSourceBytes bounds uploaded program text (default 1 MiB);
	// MaxBodyBytes bounds the whole request body, traces included
	// (default 16 MiB).
	MaxSourceBytes int64
	MaxBodyBytes   int64
	// MaxPrograms bounds the program-state LRU (default 64). Evicting
	// a program drops its analyses, frame summaries, and checker memos
	// — but not the shared solver cache.
	MaxPrograms int
	// SolverCacheSize bounds the shared verdict cache (default
	// smt.DefaultCacheSize).
	SolverCacheSize int
	// SnapshotPath, when set, enables warm-state snapshots: boot
	// restores from the file (a missing/corrupt/stale file only costs
	// misses), and SaveSnapshot writes to it atomically.
	SnapshotPath string
	// SnapshotInterval, with SnapshotPath set, starts a background loop
	// that saves periodically; 0 means save only when the caller asks
	// (cmd/slicerd saves on drain).
	SnapshotInterval time.Duration
	// AuthToken, when set, requires `Authorization: Bearer <token>` on
	// every endpoint except /v1/healthz; failures get a typed 401.
	AuthToken string
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxPrograms <= 0 {
		c.MaxPrograms = 64
	}
	return c
}

// Server is the daemon's state: the program LRU, the shared solver
// cache, the admission semaphore, and the snapshot loop. Create with
// New, expose with Handler, stop with Close.
type Server struct {
	cfg   Config
	cache *smt.Cache
	sem   chan struct{}
	start time.Time

	mu    sync.Mutex
	progs map[string]*list.Element // source hash → *programState element
	order *list.List               // front = most recently used

	stopSnap chan struct{}
	snapDone chan struct{}

	// Drain state: draining flips once (no new admissions), sessions
	// tracks in-flight work, and cancelling drainCtx force-degrades
	// stragglers through the PR3 deadline contract — they answer
	// soundly-degraded instead of being cut off mid-write. drainMu
	// orders the flip against admission (see admit).
	drainMu     sync.Mutex
	draining    atomic.Bool
	sessions    sync.WaitGroup
	drainCtx    context.Context
	drainCancel context.CancelFunc

	requests atomic.Int64
	shed     atomic.Int64
	degraded atomic.Int64
	reqSeq   atomic.Int64

	saveMu                sync.Mutex // serializes SaveSnapshot
	snapRestoredPrograms  atomic.Int64
	snapRestoredSummaries atomic.Int64
	snapRestoredVerdicts  atomic.Int64
	snapDropped           atomic.Int64
	snapSaves             atomic.Int64
	snapLastBytes         atomic.Int64
}

// New builds a Server. With cfg.SnapshotPath set it restores warm
// state from the snapshot file (restore failures only cost
// misses) and, with cfg.SnapshotInterval > 0, starts the periodic
// snapshot-save loop. New leaves the obs default registry as it finds
// it: the slicerd_* metrics accumulate only while the caller has it
// enabled (cmd/slicerd enables it before building the server).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: smt.NewCache(cfg.SolverCacheSize),
		sem:   make(chan struct{}, cfg.MaxInflight),
		start: time.Now(),
		progs: make(map[string]*list.Element),
		order: list.New(),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	if cfg.SnapshotPath != "" {
		// Restore never fails boot: every failure mode — absent file,
		// version skew, corruption, fingerprint mismatch — degrades to
		// a cold start for the affected records.
		_, _ = s.RestoreSnapshot(cfg.SnapshotPath)
	}
	if cfg.SnapshotPath != "" && cfg.SnapshotInterval > 0 {
		s.stopSnap = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapLoop()
	}
	return s
}

// Close stops the background snapshot loop; the server remains usable
// for requests (only the periodic work stops).
func (s *Server) Close() {
	if s.stopSnap != nil {
		close(s.stopSnap)
		<-s.snapDone
		s.stopSnap = nil
	}
}

// Draining reports whether the server has stopped admitting sessions.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDrain stops admitting new sessions. In-flight sessions keep
// running; /v1/healthz flips to 503 "draining" so load balancers
// route away. Idempotent.
func (s *Server) StartDrain() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.CompareAndSwap(false, true) {
		mDraining.Set(1)
	}
}

// admit registers a session with Drain's wait group unless the server
// is draining. The check and the Add run under the mutex StartDrain
// takes to flip the flag, so every Add happens before Drain's Wait
// begins and none follows it.
func (s *Server) admit() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.sessions.Add(1)
	return true
}

// Drain performs the graceful-shutdown contract (docs/DEPLOYMENT.md):
// stop admitting, wait up to timeout for in-flight sessions to finish,
// then cancel the remainder — through the PR3 deadline threading they
// come back degraded-but-sound (supersets, weakened verdicts) rather
// than being cut off mid-answer. It returns true when every session
// finished within the timeout without being force-degraded.
func (s *Server) Drain(timeout time.Duration) bool {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.sessions.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
	}
	s.drainCancel()
	// Cancelled sessions unwind at the next solver/walker poll; give
	// them a bounded grace period so a wedged handler cannot hang
	// shutdown forever.
	select {
	case <-done:
	case <-time.After(timeout + 2*time.Second):
	}
	return false
}

func (s *Server) snapLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSnap:
			return
		case <-t.C:
			_ = s.SaveSnapshot(s.cfg.SnapshotPath)
		}
	}
}

// tryAcquire claims an admission slot without blocking; callers that
// get false must shed the request.
func (s *Server) tryAcquire() bool {
	select {
	case s.sem <- struct{}{}:
		mInflight.Add(1)
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	<-s.sem
	mInflight.Add(-1)
}

// ---------------------------------------------------------------------------
// Program-state cache

// programState is the long-lived per-program half of the shared state:
// the compiled CFA, lazily built per-option slicers (each owning its
// analyses and summ.Table), and per-option checkers (each owning its
// persistent abstract-post memo). Slicers are safe for concurrent
// use; a checker is not, so checkerBox serializes it.
type programState struct {
	key  string // source hash (cache key)
	fp   uint64 // cfa structural fingerprint (reported on the wire)
	src  string // exact source text (snapshots recompile from it)
	prog *cfa.Program

	mu       sync.Mutex
	slicers  map[slicerKey]*core.Slicer
	checkers map[checkerKey]*checkerBox
}

// slicerKey selects a slicer's §4.2 optimizations. Every slicer
// memoizes frame summaries. Snapshots gob-encode this struct: older
// files also carry Summaries (and Portfolio), which gob skips.
type slicerKey struct {
	Early, Skip bool
}

type checkerKey struct {
	Slicing, DFS bool
	MaxRefs      int
	MaxWork      int
	MaxPreds     int
}

type checkerBox struct {
	mu sync.Mutex
	c  *cegar.Checker
}

// sourceKey is the program-cache key: a content hash of the exact
// source text, so a warm lookup costs no parse.
func sourceKey(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:8])
}

// program returns the cached state for src, compiling on miss. The
// boolean reports a cache hit. Compilation happens outside the LRU
// lock; on a race the first inserted state wins.
func (s *Server) program(src string) (*programState, bool, error) {
	key := sourceKey(src)
	s.mu.Lock()
	if el, ok := s.progs[key]; ok {
		s.order.MoveToFront(el)
		ps := el.Value.(*programState)
		s.mu.Unlock()
		mProgHits.Inc()
		return ps, true, nil
	}
	s.mu.Unlock()

	mProgMisses.Inc()
	prog, err := compile.Source(src)
	if err != nil {
		return nil, false, err
	}
	ps := &programState{
		key:      key,
		fp:       cfa.ProgramFingerprint(prog),
		src:      src,
		prog:     prog,
		slicers:  make(map[slicerKey]*core.Slicer),
		checkers: make(map[checkerKey]*checkerBox),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.progs[key]; ok { // lost the compile race
		s.order.MoveToFront(el)
		return el.Value.(*programState), true, nil
	}
	s.insertProgramLocked(ps)
	return ps, false, nil
}

// insertProgramLocked adds ps to the LRU (caller holds s.mu), evicting
// the oldest entry past capacity.
func (s *Server) insertProgramLocked(ps *programState) {
	s.progs[ps.key] = s.order.PushFront(ps)
	if s.order.Len() > s.cfg.MaxPrograms {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.progs, oldest.Value.(*programState).key)
		mProgEvictions.Inc()
	}
	mPrograms.Set(int64(s.order.Len()))
}

// slicer returns (building on first use) the program's slicer for the
// given option key. Construction runs the alias/mod-ref/dataflow
// analyses once; the returned slicer — and its frame-summary table —
// is shared by every later request with the same options.
func (ps *programState) slicer(k slicerKey) *core.Slicer {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if sl, ok := ps.slicers[k]; ok {
		return sl
	}
	sl := core.NewWithOptions(ps.prog, core.Options{
		EarlyUnsatStop: k.Early,
		SkipFunctions:  k.Skip,
		Summaries:      true,
	})
	ps.slicers[k] = sl
	return sl
}

// checker returns (building on first use) the serialized checker box
// for the given option key. The checker shares the server's solver
// cache and keeps its abstract-post memo across requests.
func (ps *programState) checker(k checkerKey, cache *smt.Cache, slicerOpts core.Options) *checkerBox {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if box, ok := ps.checkers[k]; ok {
		return box
	}
	box := &checkerBox{c: cegar.New(ps.prog, cegar.Options{
		UseSlicing:     k.Slicing,
		DFS:            k.DFS,
		MaxRefinements: k.MaxRefs,
		MaxWork:        k.MaxWork,
		MaxPreds:       k.MaxPreds,
		SharedCache:    cache,
		SlicerOpts:     slicerOpts,
	})}
	ps.checkers[k] = box
	return box
}

// Stats snapshots the service counters for /v1/stats.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	programs := s.order.Len()
	s.mu.Unlock()
	cs := s.cache.Stats()
	return StatsResponse{
		UptimeMS:    float64(time.Since(s.start).Microseconds()) / 1000,
		Programs:    programs,
		MaxPrograms: s.cfg.MaxPrograms,
		Inflight:    len(s.sem),
		MaxInflight: s.cfg.MaxInflight,
		Requests:    s.requests.Load(),
		Shed:        s.shed.Load(),
		Degraded:    s.degraded.Load(),
		SolverCache: SolverCacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
		},
		Draining: s.draining.Load(),
		Snapshot: s.snapshotStats(),
	}
}

// snapshotStats reports the snapshot subsystem, or nil when it has
// never been touched (no path configured, nothing restored).
func (s *Server) snapshotStats() *SnapshotStats {
	st := SnapshotStats{
		RestoredPrograms:  s.snapRestoredPrograms.Load(),
		RestoredSummaries: s.snapRestoredSummaries.Load(),
		RestoredVerdicts:  s.snapRestoredVerdicts.Load(),
		DroppedRecords:    s.snapDropped.Load(),
		Saves:             s.snapSaves.Load(),
		LastSaveBytes:     s.snapLastBytes.Load(),
	}
	if s.cfg.SnapshotPath == "" && st == (SnapshotStats{}) {
		return nil
	}
	return &st
}

// fingerprintHex renders the CFA fingerprint the way the PSTRC header
// and the API report it.
func fingerprintHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }
