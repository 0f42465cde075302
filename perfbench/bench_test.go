package main

import (
	"math"
	"testing"

	"pathslice/internal/core"
)

// The fig6 known answer must catch a slicer that drops relevant
// guards: its slices of safe traces turn feasible.
func TestFig6KnownAnswerCatchesUnsoundSlicer(t *testing.T) {
	cfg := config{seed: 0, seconds: 1}
	sound, err := runFig6With(cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sound.ok != sound.attempted {
		t.Fatalf("default slicer: %d of %d ops match the known answer", sound.ok, sound.attempted)
	}
	unsound, err := runFig6With(cfg, core.Options{Unsound: core.UnsoundDropGuards})
	if err != nil {
		t.Fatal(err)
	}
	share := float64(unsound.ok) / float64(unsound.attempted)
	if share >= 1 {
		t.Fatalf("UnsoundDropGuards slicer kept ok_share at %v", share)
	}
	t.Logf("UnsoundDropGuards slicer: ok_share %.3f over %d ops", share, unsound.attempted)
}

// Two traced table1 runs of one seed repeat their deterministic counts
// exactly (allocation counts within 0.1%), and another seed moves them.
func TestTracedCountsRepeatPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("three traced table1 runs")
	}
	run := func(seed int64) map[string]float64 {
		st, err := runTable1(config{seed: seed, seconds: 1, traced: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.violations) > 0 || st.ok != st.attempted {
			t.Fatalf("seed %d: %d/%d ok, violations %v", seed, st.ok, st.attempted, st.violations)
		}
		e2e, err := endToEnd(st)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]float64{
			"cegar.work":         st.layers["cegar.work"].Value,
			"cegar.solver_calls": st.layers["cegar.solver_calls"].Value,
			"core.walked_edges":  st.layers["core.walked_edges"].Value,
			"slice_ratio_pct":    e2e["slice_ratio_pct"].Value,
			"cegar.mallocs":      st.layers["cegar.mallocs"].Value,
		}
	}
	a, b, other := run(0), run(0), run(1)
	for name, v := range a {
		if name == "cegar.mallocs" {
			if math.Abs(b[name]-v) > 0.001*v {
				t.Errorf("%s: %v then %v, more than 0.1%% apart", name, v, b[name])
			}
		} else if b[name] != v {
			t.Errorf("%s: %v then %v on one seed", name, v, b[name])
		}
		if v == 0 {
			t.Errorf("%s is 0", name)
		}
	}
	for _, name := range []string{"cegar.work", "cegar.solver_calls", "core.walked_edges", "slice_ratio_pct"} {
		if other[name] == a[name] {
			t.Errorf("%s: %v on seed 0 and seed 1", name, a[name])
		}
	}
}

// The accounting check flags children that overlap or outrun their
// parent, and passes a proper nesting.
func TestAccountFlagsOverlappingChildren(t *testing.T) {
	mk := func(children ...[2]int64) *tracer {
		tr := &tracer{ops: []opInfo{{phaseRound, 0}}}
		tr.spans = append(tr.spans, span{ID: 1, Op: 1, Name: "op", StartNS: 0, EndNS: 100})
		for i, c := range children {
			tr.spans = append(tr.spans, span{ID: i + 2, Parent: 1, Op: 1, Name: "child", StartNS: c[0], EndNS: c[1]})
		}
		return tr
	}
	if bad := mk([2]int64{0, 40}, [2]int64{40, 90}).account(); len(bad) != 0 {
		t.Fatalf("proper nesting flagged: %v", bad)
	}
	if bad := mk([2]int64{0, 60}, [2]int64{40, 90}).account(); len(bad) == 0 {
		t.Fatal("overlapping children not flagged")
	}
	if bad := mk([2]int64{50, 130}).account(); len(bad) == 0 {
		t.Fatal("child outrunning its parent not flagged")
	}
}
