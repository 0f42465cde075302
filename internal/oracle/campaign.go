// The campaign driver: a coverage-guided loop that renders seed specs,
// runs every oracle pillar over the resulting program/trace pairs, and
// feeds specs that exercised new slicer behavior back into the queue as
// mutation candidates. Coverage is fingerprinted from the slicer's
// Stats plus which smt_/pathslice_/summ_ obs counters each pair moved — cheap,
// deterministic, and sensitive to exactly the branches (early-stop,
// degradation, frame skips, solver case splits) the oracle wants the
// corpus to reach.
package oracle

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pathslice/internal/cegar"
	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/interp"
	"pathslice/internal/obs"
	"pathslice/internal/smt"
)

// Config drives one campaign.
type Config struct {
	// Seeds is how many specs to process (default 120).
	Seeds int
	// Budget is the wall-clock cap; the campaign stops cleanly when it
	// is exceeded (default 30s).
	Budget time.Duration
	// Seed makes the whole campaign deterministic (default 1).
	Seed int64
	// MetaEvery/BruteEvery/CegarEvery run the heavier pillars on every
	// Nth spec (defaults 2, 4, 8; 0 disables the pillar).
	MetaEvery  int
	BruteEvery int
	CegarEvery int
	// Unsound injects a deliberately broken Take rule — the oracle's
	// self-test that it would catch a real regression.
	Unsound core.UnsoundMode
	// Summaries adds the summary-differential pillar: every pair is
	// also sliced with context-keyed frame summaries on, and any
	// observable divergence from the plain walk is a violation. With
	// Unsound == core.UnsoundStaleSummaries this is the pillar that
	// must catch the planted stale-reuse bug.
	Summaries bool
	// CallHeavy biases generated specs toward deep, repeated call
	// chains (CallHeavySpec), the regime the summaries target.
	CallHeavy bool
	// CorpusDir, when set, loads regression specs from
	// <CorpusDir>/seeds.txt ahead of the starter corpus.
	CorpusDir string
	Check     CheckOptions
	Brute     BruteOptions
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 120
	}
	if c.Budget <= 0 {
		c.Budget = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MetaEvery == 0 {
		c.MetaEvery = 2
	}
	if c.BruteEvery == 0 {
		c.BruteEvery = 4
	}
	if c.CegarEvery == 0 {
		c.CegarEvery = 8
	}
	return c
}

// Stats summarizes a campaign run; BENCH artifacts and the slicecheck
// CLI both render it.
type Stats struct {
	Seeds              int           `json:"seeds"`
	Programs           int           `json:"programs"`
	Pairs              int           `json:"pairs"`
	Inconclusive       int           `json:"inconclusive"`
	CoverageEdges      int           `json:"coverage_edges"`
	BruteTraces        int           `json:"brute_traces"`
	BruteAgree         int           `json:"brute_agree"`
	SkeletonMismatches int           `json:"skeleton_mismatches"`
	CegarChecks        int           `json:"cegar_checks"`
	Elapsed            time.Duration `json:"elapsed_ns"`
	Violations         []Violation   `json:"-"`
}

// MinAgreeRate is the fraction of brute-force comparisons whose minimal
// sufficient subtrace matched the production slice size exactly.
func (s *Stats) MinAgreeRate() float64 {
	if s.BruteTraces == 0 {
		return 0
	}
	return float64(s.BruteAgree) / float64(s.BruteTraces)
}

// Summary renders the stats as a one-paragraph report.
func (s *Stats) Summary() string {
	return fmt.Sprintf(
		"oracle: %d seeds, %d programs, %d pairs, %d violations, %d inconclusive, "+
			"%d coverage edges, brute %d/%d minimal-size agreement (%.0f%%), "+
			"%d skeleton mismatches, %d cegar cross-checks, %.1fs",
		s.Seeds, s.Programs, s.Pairs, len(s.Violations), s.Inconclusive,
		s.CoverageEdges, s.BruteAgree, s.BruteTraces, 100*s.MinAgreeRate(),
		s.SkeletonMismatches, s.CegarChecks, s.Elapsed.Seconds())
}

// Run executes a campaign. Determinism: the same Config always checks
// the same pairs in the same order (the Budget cutoff is the only
// wall-clock dependence, and it only truncates the tail).
func Run(cfg Config) *Stats {
	cfg = cfg.withDefaults()
	start := time.Now()
	stats := &Stats{}
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)

	rng := rand.New(rand.NewSource(cfg.Seed))
	queue := LoadCorpus(cfg.CorpusDir)
	queue = append(queue, StarterSpecs()...)
	fingerprints := map[string]bool{}

	for stats.Seeds < cfg.Seeds {
		if time.Since(start) > cfg.Budget {
			break
		}
		var spec SeedSpec
		switch {
		case len(queue) > 0:
			spec, queue = queue[0], queue[1:]
		case cfg.CallHeavy:
			spec = CallHeavySpec(rng)
		default:
			spec = RandomSpec(rng)
		}
		stats.Seeds++
		newCov := runSpec(spec, cfg, stats, fingerprints)
		if newCov && len(queue) < 4*cfg.Seeds {
			queue = append(queue, Mutate(spec, rng))
		}
	}
	stats.CoverageEdges = len(fingerprints)
	stats.Elapsed = time.Since(start)
	return stats
}

// runSpec checks one spec across slicer configurations and pillars. It
// reports whether any pair produced a previously unseen coverage
// fingerprint.
func runSpec(spec SeedSpec, cfg Config, stats *Stats, fingerprints map[string]bool) bool {
	src := Render(spec, renderOpts{})
	prog, err := compile.Source(src)
	if err != nil {
		// A generator bug, not a slicer bug — but it must not pass
		// silently: the campaign's job is to exercise the slicer, and a
		// spec that fails to compile exercises nothing.
		stats.Violations = append(stats.Violations, Violation{
			Kind: "generator", Detail: fmt.Sprintf("spec does not compile: %v", err), Spec: SpecString(spec),
		})
		return false
	}
	stats.Programs++

	// Repeated chain invocations reuse the callee's body edges once per
	// call, so the edge-use budget must cover every repeat (the default
	// of 2 otherwise makes call-heavy targets unreachable in the graph).
	uses := 0 // 0 = the finder's default
	if spec.CallRepeat > 0 {
		uses = spec.CallRepeat + 2
	}
	short := cfa.FindPathToError(prog, cfa.FindOptions{MaxEdgeUses: uses})
	long := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: true, MaxLen: 600, MaxEdgeUses: uses})
	if short == nil {
		stats.Violations = append(stats.Violations, Violation{
			Kind: "generator", Detail: "no path to the error location", Spec: SpecString(spec),
		})
		return false
	}

	slicerOpts := []core.Options{
		{Unsound: cfg.Unsound},
		{EarlyUnsatStop: true, CheckEvery: 1, Unsound: cfg.Unsound},
	}
	copts := cfg.Check
	copts.ReachCheck = true

	newCov := false
	for oi, sopts := range slicerOpts {
		paths := []cfa.Path{short}
		if oi == 0 && long != nil && len(long) != len(short) {
			paths = append(paths, long)
		}
		for _, path := range paths {
			before := counterSnapshot()
			rep := CheckTrace(prog, path, sopts, copts)
			stats.Pairs++
			stats.Inconclusive += len(rep.Inconclusive)
			for _, v := range rep.Violations {
				v.Spec = SpecString(spec)
				stats.Violations = append(stats.Violations, v)
			}
			if cfg.Summaries {
				stats.Pairs++
				for _, v := range CheckSummaryDiff(prog, path, sopts) {
					v.Spec = SpecString(spec)
					stats.Violations = append(stats.Violations, v)
				}
			}
			fp := fingerprint(rep, before)
			if !fingerprints[fp] {
				fingerprints[fp] = true
				newCov = true
			}
		}
	}

	if cfg.MetaEvery > 0 && stats.Seeds%cfg.MetaEvery == 0 {
		mr := CheckMetamorphic(spec, slicerOpts[0], copts)
		stats.Pairs += mr.Pairs
		stats.Programs += mr.Pairs // one program per variant pair
		stats.Inconclusive += len(mr.Inconclusive)
		stats.SkeletonMismatches += mr.SkeletonMismatches
		for _, v := range mr.Violations {
			v.Spec = SpecString(spec)
			stats.Violations = append(stats.Violations, v)
		}
	}

	if cfg.BruteEvery > 0 && stats.Seeds%cfg.BruteEvery == 0 {
		runBrute(spec, cfg, stats)
	}

	if cfg.CegarEvery > 0 && stats.Seeds%cfg.CegarEvery == 0 {
		checkCegarPair(prog, SpecString(spec), cfg, stats)
	}
	return newCov
}

// runBrute shrinks the spec to a brute-enumerable size and compares the
// production slice against the enumerated minimal sufficient subtrace.
func runBrute(spec SeedSpec, cfg Config, stats *Stats) {
	tiny := spec.tiny()
	prog, err := compile.Source(Render(tiny, renderOpts{}))
	if err != nil {
		return
	}
	path := cfa.FindPathToError(prog, cfa.FindOptions{})
	if path == nil || len(path) > cfg.Brute.withDefaults().MaxEdges {
		return
	}
	slicer := core.NewWithOptions(prog, core.Options{Unsound: cfg.Unsound})
	res, err := slicer.Slice(path)
	if err != nil {
		return
	}
	fr, _ := slicer.CheckFeasibility(path)
	br := BruteCompare(prog, path, res, fr.Status, tiny.Seed, cfg.Brute)
	if !br.Ran {
		return
	}
	stats.BruteTraces++
	if br.Agree {
		stats.BruteAgree++
	}
	stats.Inconclusive += len(br.Inconclusive)
	for _, v := range br.Violations {
		v.Spec = SpecString(tiny)
		stats.Violations = append(stats.Violations, v)
	}
}

// counterSnapshot captures the smt_/pathslice_ counters the coverage
// fingerprint tracks.
func counterSnapshot() map[string]int64 {
	snap := obs.Default().Snapshot()
	out := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "smt_") || strings.HasPrefix(c.Name, "pathslice_") || strings.HasPrefix(c.Name, "summ_") {
			out[c.Name] = c.Value
		}
	}
	return out
}

// fingerprint summarizes which slicer/solver behaviors one pair
// exercised: boolean slicer stats, bucketized slice ratio and length,
// the verdict pair, and the set of tracked counters that moved.
func fingerprint(rep *Report, before map[string]int64) string {
	var b strings.Builder
	if rep.Res != nil {
		st := rep.Res.Stats
		fmt.Fprintf(&b, "a%db%dc%dr%d|sf%d|gc%d|",
			boolBit(st.TakenAssign > 0), boolBit(st.TakenAssume > 0),
			boolBit(st.TakenCall > 0), boolBit(st.TakenReturn > 0),
			st.SkippedFrames, st.SkippedGuardChains)
		fmt.Fprintf(&b, "es%dkd%ddg%d|", boolBit(st.EarlyStopped),
			boolBit(rep.Res.KnownInfeasible), boolBit(rep.Res.Degraded))
		fmt.Fprintf(&b, "ratio%d|len%d|", int(st.Ratio()*4), lenBucket(st.InputEdges))
	}
	fmt.Fprintf(&b, "%v/%v|", rep.SliceStatus, rep.FullStatus)
	after := counterSnapshot()
	moved := make([]string, 0, 8)
	for name, v := range after {
		if v > before[name] {
			moved = append(moved, name)
		}
	}
	sort.Strings(moved)
	b.WriteString(strings.Join(moved, ","))
	return b.String()
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

func lenBucket(n int) int {
	switch {
	case n <= 8:
		return 0
	case n <= 16:
		return 1
	case n <= 32:
		return 2
	case n <= 64:
		return 3
	}
	return 4
}

// LoadCorpus reads regression specs from <dir>/seeds.txt (one
// SpecString per line, '#' comments). A missing file is fine; a
// malformed line is a loud failure surfaced as a generator violation at
// the head of the run — checked-in seeds must stay parseable.
func LoadCorpus(dir string) []SeedSpec {
	if dir == "" {
		return nil
	}
	f, err := os.Open(filepath.Join(dir, "seeds.txt"))
	if err != nil {
		return nil
	}
	defer f.Close()
	var specs []SeedSpec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if spec, err := ParseSpec(line); err == nil {
			specs = append(specs, spec)
		}
	}
	return specs
}

// ---------------------------------------------------------------------------
// CEGAR oracle mode

// checkCegarPair runs the CEGAR checker over the program with the
// refinement-verdict hook installed: every counterexample feasibility
// verdict the loop acts on is cross-checked against the stateless
// solver and, on Sat, against a concrete model replay. Final verdicts
// are checked against bounded concrete execution: Unsafe needs a
// replayable witness, Safe must survive an input search from the real
// initial state (all globals zero).
func checkCegarPair(prog *cfa.Program, spec string, cfg Config, stats *Stats) {
	stats.CegarChecks++
	ref := core.New(prog) // reference slicer for cross-checks
	violate := func(format string, args ...any) {
		stats.Violations = append(stats.Violations, Violation{
			Kind: "cegar", Detail: fmt.Sprintf(format, args...), Spec: spec,
		})
	}
	opts := cegar.Options{
		UseSlicing:     true,
		SlicerOpts:     core.Options{Unsound: cfg.Unsound},
		MaxRefinements: 12,
		MaxWork:        4000,
		Deadline:       2 * time.Second,
	}
	opts.OnRefinement = func(trace, analyzed cfa.Path, status smt.Status) {
		rs, enc := ref.CheckFeasibility(analyzed)
		switch {
		case status == smt.StatusUnsat && rs.Status == smt.StatusSat:
			violate("refinement verdict Unsat but the stateless solver finds the analyzed slice Sat")
		case status == smt.StatusSat && rs.Status == smt.StatusUnsat:
			violate("refinement verdict Sat but the stateless solver finds the analyzed slice Unsat")
		case status == smt.StatusSat && rs.Status == smt.StatusSat:
			if ok, err := replayModel(prog, ref, analyzed, rs.Model, enc.NondetInputs()); err == nil && !ok {
				violate("refinement Sat model does not replay the analyzed slice")
			}
		default:
			if rs.Status == smt.StatusUnknown {
				stats.Inconclusive++
			}
		}
	}
	targets := prog.ErrorLocs()
	if len(targets) == 0 {
		return
	}
	res := cegar.New(prog, opts).Check(targets[0])
	switch res.Verdict {
	case cegar.VerdictUnsafe:
		if res.Witness == nil {
			violate("Unsafe verdict without a witness slice")
			return
		}
		rs, enc := ref.CheckFeasibility(res.Witness)
		if rs.Status == smt.StatusSat {
			if ok, err := replayModel(prog, ref, res.Witness, rs.Model, enc.NondetInputs()); err == nil && !ok {
				violate("Unsafe witness model does not replay")
			}
		}
	case cegar.VerdictSafe:
		st := interp.NewState(prog, ref.Addrs)
		reached, _ := searchReach(prog, st, targets[0], candidateValues(prog), cfg.Check.withDefaults())
		if reached {
			violate("Safe verdict but a concrete input sequence reaches the target")
		}
	}
}
