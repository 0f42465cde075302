package core_test

import (
	"context"
	"path/filepath"
	"testing"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
)

// callHeavy repeatedly invokes a callee that modifies the live lvalue,
// so every iteration's frame is walked (return edge taken) and — with
// summaries on — every iteration after the first is a table hit.
const callHeavy = `
int x;

void bump() {
  x = x + 1;
}

void main() {
  x = 0;
  for (int i = 0; i < 12; i = i + 1) {
    bump();
  }
  if (x > 100) {
    error;
  }
}
`

// callHeavyMixed alternates a relevant callee with an irrelevant one
// and nests calls two deep, exercising summary recording inside an
// enclosing recording.
const callHeavyMixed = `
int x;
int y;

void bump() {
  x = x + 1;
}

void noise() {
  y = y * 2 + 1;
}

void outer() {
  bump();
  noise();
}

void main() {
  x = 0;
  y = 0;
  for (int i = 0; i < 8; i = i + 1) {
    outer();
  }
  if (x > 100) {
    error;
  }
}
`

// sameResult asserts two slicing results are bit-identical modulo the
// summary hit/miss counters themselves.
func sameResult(t *testing.T, name string, off, on *core.Result) {
	t.Helper()
	if len(off.Taken) != len(on.Taken) {
		t.Fatalf("%s: Taken length %d vs %d", name, len(off.Taken), len(on.Taken))
	}
	for i := range off.Taken {
		if off.Taken[i] != on.Taken[i] {
			t.Fatalf("%s: Taken[%d] differs: off=%v on=%v", name, i, off.Taken[i], on.Taken[i])
		}
	}
	if off.KnownInfeasible != on.KnownInfeasible {
		t.Fatalf("%s: KnownInfeasible differs: off=%v on=%v", name, off.KnownInfeasible, on.KnownInfeasible)
	}
	if off.Degraded != on.Degraded {
		t.Fatalf("%s: Degraded differs: off=%v on=%v", name, off.Degraded, on.Degraded)
	}
	if len(off.Live) != len(on.Live) {
		t.Fatalf("%s: Live size differs: off=%v on=%v", name, off.Live.Sorted(), on.Live.Sorted())
	}
	for l := range off.Live {
		if !on.Live.Has(l) {
			t.Fatalf("%s: Live lvalue %v missing with summaries on", name, l)
		}
	}
	a, b := off.Stats, on.Stats
	a.SummaryHits, a.SummaryMisses, a.WalkedEdges = 0, 0, 0
	b.SummaryHits, b.SummaryMisses, b.WalkedEdges = 0, 0, 0
	if a != b {
		t.Fatalf("%s: Stats differ:\n  off: %+v\n  on:  %+v", name, a, b)
	}
}

// TestSummariesBitIdentical is the differential gate at unit scale:
// for each program, each path shape, and each option set, the
// summary-on walk must reproduce the summary-off walk exactly.
func TestSummariesBitIdentical(t *testing.T) {
	srcs := map[string]string{
		"ex1":            ex1,
		"ex2Unshaded":    ex2Unshaded,
		"ex2Shaded":      ex2Shaded,
		"callHeavy":      callHeavy,
		"callHeavyMixed": callHeavyMixed,
	}
	optSets := []core.Options{
		{},
		{SkipFunctions: true},
		{EarlyUnsatStop: true},
		{EarlyUnsatStop: true, SkipFunctions: true},
	}
	for name, src := range srcs {
		prog := compile.MustSource(src)
		for _, long := range []bool{false, true} {
			p := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: long, MaxEdgeUses: 2})
			if p == nil {
				continue
			}
			for oi, opts := range optSets {
				off := core.NewWithOptions(prog, opts)
				onOpts := opts
				onOpts.Summaries = true
				on := core.NewWithOptions(prog, onOpts)
				resOff, err := off.Slice(p)
				if err != nil {
					t.Fatalf("%s opts %d: off: %v", name, oi, err)
				}
				// Slice twice with the same Slicer so the second pass
				// exercises hits from a warm table.
				for pass := 0; pass < 2; pass++ {
					resOn, err := on.Slice(p)
					if err != nil {
						t.Fatalf("%s opts %d pass %d: on: %v", name, oi, pass, err)
					}
					sameResult(t, name, resOff, resOn)
				}
			}
		}
	}
}

// TestSummariesActuallyHit pins the perf mechanism itself: repeated
// frames of the same context must be served from the table.
func TestSummariesActuallyHit(t *testing.T) {
	prog := compile.MustSource(callHeavy)
	p := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: true, MaxEdgeUses: 2})
	if p == nil {
		t.Fatal("no path")
	}
	s := core.NewWithOptions(prog, core.Options{Summaries: true})
	res, err := s.Slice(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SummaryHits == 0 {
		t.Fatalf("expected summary hits on repeated calls, got stats %+v", res.Stats)
	}
	if res.Stats.SummaryHits < res.Stats.SummaryMisses {
		t.Fatalf("expected hits to dominate misses: %+v", res.Stats)
	}
	if s.Summ.Len() == 0 || s.Summ.Bytes() == 0 {
		t.Fatal("summary table should have recorded entries")
	}
	// A second path over the same program reuses the warm table.
	res2, err := s.Slice(p)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.SummaryMisses != 0 {
		t.Fatalf("warm table should serve every frame: %+v", res2.Stats)
	}
}

// TestSummariesOffByDefault: the memo must not exist unless requested,
// and never with RecordTrace (the annotated trace needs real walks).
func TestSummariesOffByDefault(t *testing.T) {
	prog := compile.MustSource(callHeavy)
	if s := core.New(prog); s.Summ != nil {
		t.Fatal("summary table built without Options.Summaries")
	}
	s := core.NewWithOptions(prog, core.Options{Summaries: true, RecordTrace: true})
	if s.Summ != nil {
		t.Fatal("summary table must be disabled under RecordTrace")
	}
	p := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: true, MaxEdgeUses: 2})
	res, err := s.Slice(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SummaryHits != 0 || res.Stats.SummaryMisses != 0 {
		t.Fatalf("no summary traffic expected: %+v", res.Stats)
	}
	if len(res.Trace) == 0 {
		t.Fatal("RecordTrace must still produce the annotated trace")
	}
}

// TestSliceStreamMatchesSliceCtx: the streaming walk over a trace file
// must reproduce the in-memory walk, with and without summaries.
func TestSliceStreamMatchesSliceCtx(t *testing.T) {
	for name, src := range map[string]string{"callHeavy": callHeavy, "ex1": ex1, "mixed": callHeavyMixed} {
		prog := compile.MustSource(src)
		p := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: true, MaxEdgeUses: 2})
		if p == nil {
			t.Fatalf("%s: no path", name)
		}
		file := filepath.Join(t.TempDir(), "trace.pstrc")
		if err := cfa.WriteTraceFile(file, prog, p); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		for _, summaries := range []bool{false, true} {
			s := core.NewWithOptions(prog, core.Options{Summaries: summaries})
			want, err := s.SliceCtx(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: slice: %v", name, err)
			}
			r, err := cfa.OpenTraceFile(file, prog)
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			got, err := core.NewWithOptions(prog, core.Options{Summaries: summaries}).SliceStream(context.Background(), r)
			if cerr := r.Close(); cerr != nil {
				t.Fatalf("%s: close: %v", name, cerr)
			}
			if err != nil {
				t.Fatalf("%s: stream slice: %v", name, err)
			}
			sameResult(t, name, want, got)
			if len(want.Slice) != len(got.Slice) {
				t.Fatalf("%s: slice length %d vs %d", name, len(want.Slice), len(got.Slice))
			}
			for i := range want.Slice {
				if want.Slice[i].ID != got.Slice[i].ID {
					t.Fatalf("%s: slice edge %d differs", name, i)
				}
			}
			if r.FramesPeak() == 0 {
				t.Fatalf("%s: reader never loaded a block", name)
			}
		}
	}
}
