package pathslice

// Tier-1 oracle gate (docs/TESTING.md): a full campaign of generated
// program/trace pairs must pass the Theorem-1 contract checks with
// zero violations, and a deliberately broken slicer must be caught
// within the same budget. `make oracle` runs exactly these tests;
// `make check` includes them via `make test`.

import (
	"testing"
	"time"

	"pathslice/internal/core"
	"pathslice/internal/oracle"
)

// oracleConfig is the shared campaign shape: the checked-in regression
// corpus first, then generated + mutated specs, 30s ceiling (the run
// finishes in well under a second; the budget only guards slow hosts).
func oracleConfig() oracle.Config {
	return oracle.Config{
		Seeds:     140,
		Budget:    30 * time.Second,
		Seed:      1,
		CorpusDir: "testdata/oracle",
	}
}

// TestOracleCampaign is the acceptance bar: at least 514 slicer
// verdicts cross-checked per run (the campaign yields 642; 514 allows
// a 20% drop), none of them violating soundness, completeness,
// differential agreement, brute-force sufficiency, or a metamorphic
// invariant.
func TestOracleCampaign(t *testing.T) {
	stats := oracle.Run(oracleConfig())
	for _, v := range stats.Violations {
		t.Errorf("violation: %s", v)
	}
	if stats.Pairs < 514 {
		t.Errorf("campaign produced only %d pairs, want >= 514", stats.Pairs)
	}
	if stats.Inconclusive > stats.Pairs/10 {
		t.Errorf("%d of %d pairs inconclusive — oracle losing decisiveness", stats.Inconclusive, stats.Pairs)
	}
	t.Log(stats.Summary())
}

// TestOracleCatchesPlantedBugs proves the gate has teeth: each
// deliberately unsound Take-rule mode must produce at least one
// violation inside the default campaign budget.
func TestOracleCatchesPlantedBugs(t *testing.T) {
	for _, mode := range []core.UnsoundMode{
		core.UnsoundDropGuards,
		core.UnsoundDropAliasedWrites,
		core.UnsoundSkipCallees,
	} {
		cfg := oracleConfig()
		cfg.Seeds = 40
		cfg.Unsound = mode
		stats := oracle.Run(cfg)
		if len(stats.Violations) == 0 {
			t.Errorf("unsound mode %d survived the campaign: %s", mode, stats.Summary())
		}
	}
}

// TestSummaryDifferentialGate is the PR6 acceptance bar for the frame
// summaries: a fresh call-heavy campaign of at least 200 pairs — the
// checked-in corpus and the starter specs included, since they ride at
// the head of the queue — where every pair is additionally sliced with
// summaries on and compared bit-for-bit against the plain walk. Zero
// divergences allowed.
func TestSummaryDifferentialGate(t *testing.T) {
	cfg := oracleConfig()
	cfg.Seeds = 80
	cfg.Summaries = true
	cfg.CallHeavy = true
	stats := oracle.Run(cfg)
	for _, v := range stats.Violations {
		t.Errorf("violation: %s", v)
	}
	if stats.Pairs < 200 {
		t.Errorf("campaign produced only %d pairs, want >= 200", stats.Pairs)
	}
	t.Log(stats.Summary())
}

// TestSummaryStalePlantedBugCaught: reusing a frame summary across
// differing live contexts (the one unsound shortcut the summary key
// exists to prevent) must be caught by the summary-differential
// pillar within a small campaign.
func TestSummaryStalePlantedBugCaught(t *testing.T) {
	cfg := oracleConfig()
	cfg.Seeds = 40
	cfg.Summaries = true
	cfg.CallHeavy = true
	cfg.Unsound = core.UnsoundStaleSummaries
	stats := oracle.Run(cfg)
	if len(stats.Violations) == 0 {
		t.Fatalf("stale summary reuse survived the campaign: %s", stats.Summary())
	}
	for _, v := range stats.Violations {
		if v.Kind != "summ-diff" {
			t.Errorf("unexpected violation kind %q (stale reuse must only surface as summ-diff): %s", v.Kind, v)
		}
	}
	t.Logf("caught: %d violations, e.g. %s", len(stats.Violations), stats.Violations[0])
}

// TestOracleConcCampaign is the PR10 acceptance bar: at least 300
// multi-threaded program/trace pairs judged by the extended oracle —
// recorded-interleaving solver cross-checks, model replay, the
// interleaving-closure reordering pillar, and the commute metamorphic
// invariant — with zero soundness violations.
func TestOracleConcCampaign(t *testing.T) {
	stats := oracle.RunConc(oracle.ConcConfig{
		Pairs:  300,
		Budget: 120 * time.Second,
		Seed:   1,
	})
	for _, v := range stats.Violations {
		t.Errorf("violation: %s", v)
	}
	if stats.Pairs < 300 {
		t.Errorf("campaign judged only %d pairs, want >= 300", stats.Pairs)
	}
	if stats.Inconclusive > stats.Pairs/10 {
		t.Errorf("%d of %d pairs inconclusive — oracle losing decisiveness", stats.Inconclusive, stats.Pairs)
	}
	if stats.Reorderings == 0 || stats.CommutePairs == 0 {
		t.Errorf("concurrent pillars inert: %d reorderings, %d commute pairs",
			stats.Reorderings, stats.CommutePairs)
	}
	t.Log(stats.Summary())
}

// TestOracleConcCatchesPlantedBugs proves the concurrent gate has
// teeth: each deliberately broken cross-thread walk — dropping the
// racy-edge transfers outright, or reusing a stale snapshot of another
// thread's live set — must produce at least one violation inside the
// campaign budget.
func TestOracleConcCatchesPlantedBugs(t *testing.T) {
	for _, mode := range []core.UnsoundMode{
		core.UnsoundDropRacyEdges,
		core.UnsoundStaleThreadLiveSet,
	} {
		stats := oracle.RunConc(oracle.ConcConfig{
			Pairs:   80,
			Budget:  60 * time.Second,
			Seed:    1,
			Unsound: mode,
		})
		if len(stats.Violations) == 0 {
			t.Errorf("unsound mode %d survived the campaign: %s", mode, stats.Summary())
		}
	}
}
