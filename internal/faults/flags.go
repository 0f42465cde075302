package faults

import (
	"flag"
	"time"
)

// FlagConfig registers the standard -fault-* flags on fs and returns a
// function to call after parsing: it yields the resulting Config, or
// nil when every rate is zero (no injection requested). All three
// binaries share this wiring so the flag surface stays identical
// (docs/ROBUSTNESS.md).
func FlagConfig(fs *flag.FlagSet) func() *Config {
	seed := fs.Int64("fault-seed", 1, "fault injection: deterministic seed")
	unknown := fs.Float64("fault-unknown", 0, "fault injection: rate in [0,1] of solver queries forced to unknown")
	stall := fs.Float64("fault-stall", 0, "fault injection: rate in [0,1] of solver queries that stall")
	stallFor := fs.Duration("fault-stall-for", 50*time.Millisecond, "fault injection: duration of an injected solver stall")
	evict := fs.Float64("fault-evict", 0, "fault injection: rate in [0,1] of cache lookups whose entry is evicted first")
	wpanic := fs.Float64("fault-panic", 0, "fault injection: rate in [0,1] of CEGAR per-predicate entailment tasks that panic")
	return func() *Config {
		if *unknown == 0 && *stall == 0 && *evict == 0 && *wpanic == 0 {
			return nil
		}
		return &Config{
			Seed:  *seed,
			Stall: *stallFor,
			Rates: map[Kind]float64{
				SolverUnknown: *unknown,
				SolverStall:   *stall,
				CacheEvict:    *evict,
				WorkerPanic:   *wpanic,
			},
		}
	}
}
