// Package faults is a deterministic, seed-driven fault injector for
// the solving pipeline. It exists so the degradation guarantees of
// docs/ROBUSTNESS.md can be exercised on demand: injected faults force
// the failure modes a production deployment sees under load — solver
// Unknowns, hung solver calls, cache evictions, worker panics — without
// depending on timing or luck.
//
// Decisions are pure functions of (seed, kind, per-kind counter): with
// a fixed seed and a fixed query order the same calls fault on every
// run. Under concurrency the counter values goroutines observe may
// interleave differently, but the hit *fraction* stays at the
// configured rate and every consumer treats a hit as a sound
// weakening, so properties (slice supersets, verdict weakening) hold
// for any interleaving.
//
// An Injector is installed process-wide with Install (the binaries do
// this from their -fault-* flags) and consulted through the package
// functions; a nil/absent injector makes every check a single atomic
// load. Injection sites live in internal/smt (SolverUnknown,
// SolverStall, CacheEvict) and internal/cegar (WorkerPanic).
package faults

import (
	"fmt"
	"sync/atomic"
	"time"

	"pathslice/internal/obs"
)

// Kind enumerates the injectable fault classes.
type Kind int

// The fault kinds.
const (
	// SolverUnknown forces a solver call to return StatusUnknown
	// without running the decision procedure.
	SolverUnknown Kind = iota
	// SolverStall makes a solver call hang for Config.Stall (bounded
	// by the caller's context), simulating a hung decision procedure.
	SolverStall
	// CacheEvict evicts the queried key from the solver result cache
	// before lookup, forcing a re-solve and exercising concurrent
	// eviction paths.
	CacheEvict
	// WorkerPanic panics inside a CEGAR per-predicate entailment task;
	// the task must recover it and degrade the predicate valuation to
	// unknown.
	WorkerPanic

	// The wire kinds below are consumed by Proxy (proxy.go), the
	// network-level half of the campaign (docs/ROBUSTNESS.md): the
	// same seeded machinery, applied to TCP connections instead of
	// solver queries.

	// ConnReset aborts a proxied connection (RST, not FIN) — before
	// any byte or mid-response, depending on the draw.
	ConnReset
	// WireStall freezes a proxied response stream for the configured
	// stall duration, simulating a hung peer or a saturated link.
	WireStall
	// PartialWrite truncates a proxied response after a deterministic
	// prefix and aborts the connection.
	PartialWrite
	// CorruptByte flips one byte of a proxied stream — the fault the
	// end-to-end checksum headers exist to catch.
	CorruptByte

	numKinds
)

// String names the kind as it appears in flags and metrics.
func (k Kind) String() string {
	switch k {
	case SolverUnknown:
		return "solver-unknown"
	case SolverStall:
		return "solver-stall"
	case CacheEvict:
		return "cache-evict"
	case WorkerPanic:
		return "worker-panic"
	case ConnReset:
		return "conn-reset"
	case WireStall:
		return "wire-stall"
	case PartialWrite:
		return "partial-write"
	case CorruptByte:
		return "corrupt-byte"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Registry metrics (see docs/OBSERVABILITY.md): one total plus a
// per-kind breakdown, counted at the moment a fault fires.
var (
	mInjected = obs.Default().Counter("faults_injected_total")
	mPerKind  = [numKinds]*obs.Counter{
		SolverUnknown: obs.Default().Counter("faults_solver_unknown_total"),
		SolverStall:   obs.Default().Counter("faults_solver_stall_total"),
		CacheEvict:    obs.Default().Counter("faults_cache_evict_total"),
		WorkerPanic:   obs.Default().Counter("faults_worker_panic_total"),
		ConnReset:     obs.Default().Counter("faults_conn_reset_total"),
		WireStall:     obs.Default().Counter("faults_wire_stall_total"),
		PartialWrite:  obs.Default().Counter("faults_partial_write_total"),
		CorruptByte:   obs.Default().Counter("faults_corrupt_byte_total"),
	}
)

// Config describes an injection campaign.
type Config struct {
	// Seed drives every decision; the same seed and query order
	// reproduce the same faults.
	Seed int64
	// Rates maps each kind to its injection probability in [0, 1].
	// Absent kinds never fire.
	Rates map[Kind]float64
	// Stall is how long an injected SolverStall hangs (callers bound
	// it by their context deadline). Zero disables stalling even when
	// the SolverStall rate is positive.
	Stall time.Duration
}

// Injector makes deterministic fault decisions. Safe for concurrent
// use.
type Injector struct {
	seed     int64
	stall    time.Duration
	rates    [numKinds]uint64 // threshold in [0, 2^63): hit when hash < threshold
	draws    [numKinds]atomic.Uint64
	injected [numKinds]atomic.Int64
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	in := &Injector{seed: cfg.Seed, stall: cfg.Stall}
	for k, r := range cfg.Rates {
		if k < 0 || k >= numKinds {
			continue
		}
		if r < 0 {
			r = 0
		}
		if r > 1 {
			r = 1
		}
		in.rates[k] = uint64(r * float64(uint64(1)<<63))
	}
	return in
}

// Should reports (and records) whether the next operation of the given
// kind faults. Each call consumes one draw.
func (in *Injector) Should(k Kind) bool {
	if in == nil || k < 0 || k >= numKinds || in.rates[k] == 0 {
		return false
	}
	n := in.draws[k].Add(1)
	h := splitmix64(uint64(in.seed) ^ (uint64(k)+1)<<56 ^ n)
	if h>>1 >= in.rates[k] { // top 63 bits vs threshold
		return false
	}
	in.injected[k].Add(1)
	mInjected.Inc()
	mPerKind[k].Inc()
	return true
}

// StallDuration returns how long an injected SolverStall hangs.
func (in *Injector) StallDuration() time.Duration {
	if in == nil {
		return 0
	}
	return in.stall
}

// Injected returns how many faults of the kind have fired so far.
func (in *Injector) Injected(k Kind) int64 {
	if in == nil || k < 0 || k >= numKinds {
		return 0
	}
	return in.injected[k].Load()
}

// Draws returns how many decisions of the kind have been made so far,
// so callers can verify the observed injection fraction.
func (in *Injector) Draws(k Kind) int64 {
	if in == nil || k < 0 || k >= numKinds {
		return 0
	}
	return int64(in.draws[k].Load())
}

// splitmix64 is the SplitMix64 mixing function — a bijective avalanche
// over 64 bits, plenty for rate decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Process-wide installation

var active atomic.Pointer[Injector]

// Install makes in the process-wide injector consulted by the package
// functions (nil uninstalls). Returns the previous injector so tests
// can restore it.
func Install(in *Injector) *Injector { return active.Swap(in) }

// Uninstall removes the process-wide injector.
func Uninstall() { active.Store(nil) }

// Active returns the installed injector (nil when none).
func Active() *Injector { return active.Load() }

// Should consults the installed injector; with none installed it is a
// single atomic load returning false.
func Should(k Kind) bool { return active.Load().Should(k) }
