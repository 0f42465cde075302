package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/faults"
	"pathslice/internal/interp"
	"pathslice/internal/smt"
	"pathslice/internal/wp"
)

// concWriterJoined: the worker's writes are ordered before main's
// reads by the join, but they live on another thread, so only the
// racy-edge merges can carry main's demands into the worker.
const concWriterJoined = `
int g;
int done;

void worker() {
  g = 42;
  done = 1;
}

void main() {
  spawn worker();
  join;
  if (done == 1) {
    if (g == 42) {
      error;
    }
  }
}
`

// concRacy: the error is reachable only under interleavings where the
// worker's write lands before main samples g — a genuine race.
const concRacy = `
int g;

void worker() {
  g = 1;
}

void main() {
  int x;
  x = 0;
  spawn worker();
  x = g;
  join;
  if (x == 1) {
    error;
  }
}
`

// concIrrelevantThread spawns a thread whose writes nothing reads; its
// whole body should be sliced away when its span is atomic.
const concIrrelevantThread = `
int g;
int noise;

void chatter() {
  noise = 1;
  noise = noise + 1;
  noise = noise + 2;
}

void main() {
  g = 7;
  spawn chatter();
  join;
  if (g == 7) {
    error;
  }
}
`

// concErrorTrace drives ConcRun over seeds until one interleaving
// reaches the error location, and returns its recorded trace.
func concErrorTrace(t *testing.T, prog *cfa.Program, seeds int) cfa.ConcTrace {
	t.Helper()
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		st := interp.NewState(prog, wp.NewAddrMap(prog))
		r := interp.ConcRun(prog, st, interp.ZeroInputs{}, interp.ConcRunOptions{
			RecordTrace: true, Seed: seed,
		})
		if r.ReachedError {
			return r.Trace
		}
	}
	t.Fatalf("no interleaving reached the error location in %d seeds", seeds)
	return nil
}

func takenWriteOf(res *core.ConcResult, tr cfa.ConcTrace, lhs string) bool {
	for i, ev := range tr {
		op := ev.Edge.Op
		if op.Kind == cfa.OpAssign && op.LHS.Var == lhs && !op.LHS.Deref && res.Taken[i] {
			return true
		}
	}
	return false
}

// TestConcFeasibilityHonorsDeadline: every solver call stalls for 30s
// and the caller's context expires after 150ms. The concurrent
// feasibility check must come back within the deadline plus scheduling
// slack, undecided.
func TestConcFeasibilityHonorsDeadline(t *testing.T) {
	prog := compile.MustSource(concWriterJoined)
	tr := concErrorTrace(t, prog, 50)
	sl := core.New(prog)
	prev := faults.Install(faults.New(faults.Config{
		Seed:  7,
		Rates: map[faults.Kind]float64{faults.SolverStall: 1},
		Stall: 30 * time.Second,
	}))
	defer faults.Install(prev)

	const deadline = 150 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	r, _ := sl.CheckConcFeasibility(ctx, tr)
	if elapsed := time.Since(start); elapsed > deadline+3*time.Second {
		t.Fatalf("hung-solver feasibility check took %v, want <= deadline (%v) + slack", elapsed, deadline)
	}
	if r.Status != smt.StatusUnknown {
		t.Fatalf("every solver call stalled past the deadline yet the check answered %v", r.Status)
	}
}

// TestConcCrossThreadDemandKept: the worker's writes feed main's
// guards across the thread boundary; the write→read racy edges must
// pull them into the slice, and the planted DropRacyEdges mode must
// lose them (which the oracle campaign then catches as unsound).
func TestConcCrossThreadDemandKept(t *testing.T) {
	prog := compile.MustSource(concWriterJoined)
	tr := concErrorTrace(t, prog, 50)

	res, err := core.New(prog).ConcSlice(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Threads != 2 {
		t.Fatalf("Threads = %d, want 2", res.Stats.Threads)
	}
	if res.Stats.RacyEdges == 0 {
		t.Fatal("expected racy edges between worker writes and main reads")
	}
	if !takenWriteOf(res, tr, "g") || !takenWriteOf(res, tr, "done") {
		t.Fatalf("cross-thread writes missing from slice:\n%s", res.Slice)
	}
	if res.Stats.TakenSpawn == 0 || res.Stats.TakenJoin == 0 {
		t.Fatalf("spawn/join must always be kept: %+v", res.Stats)
	}

	bad := core.NewWithOptions(prog, core.Options{Unsound: core.UnsoundDropRacyEdges})
	bres, err := bad.ConcSlice(tr)
	if err != nil {
		t.Fatal(err)
	}
	if takenWriteOf(bres, tr, "g") {
		t.Fatal("UnsoundDropRacyEdges still kept the cross-thread write; the planted bug is inert")
	}
}

// TestConcRacyInterleavingSliced: a slice of a genuinely racy trace
// keeps the racing write, and replaying the slice's operation sequence
// still reaches the error.
func TestConcRacyInterleavingSliced(t *testing.T) {
	prog := compile.MustSource(concRacy)
	tr := concErrorTrace(t, prog, 200)

	res, err := core.New(prog).ConcSlice(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !takenWriteOf(res, tr, "g") {
		t.Fatalf("racing write g=1 missing from slice:\n%s", res.Slice)
	}
	st := interp.NewState(prog, wp.NewAddrMap(prog))
	if ok, err := st.ExecTrace(res.Slice.Ops(), interp.ZeroInputs{}); err != nil || !ok {
		t.Fatalf("slice replay failed: ok=%v err=%v", ok, err)
	}
}

// TestConcIrrelevantThreadSkipped: a thread nothing depends on is
// dropped whole at its untaken outermost return — provided its events
// are contiguous in the total order.
func TestConcIrrelevantThreadSkipped(t *testing.T) {
	prog := compile.MustSource(concIrrelevantThread)
	found := false
	for seed := uint64(0); seed < 100; seed++ {
		st := interp.NewState(prog, wp.NewAddrMap(prog))
		r := interp.ConcRun(prog, st, interp.ZeroInputs{}, interp.ConcRunOptions{
			RecordTrace: true, Seed: seed,
		})
		if !r.ReachedError {
			continue
		}
		tr := r.Trace
		// Only consider interleavings where the chatter thread ran as one
		// contiguous block.
		idx := tr.ThreadIndex()
		if len(idx) != 2 || len(idx[1]) == 0 {
			continue
		}
		if idx[1][len(idx[1])-1]-idx[1][0] != len(idx[1])-1 {
			continue
		}
		found = true
		res, err := core.New(prog).ConcSlice(tr)
		if err != nil {
			t.Fatal(err)
		}
		if takenWriteOf(res, tr, "noise") {
			t.Fatalf("seed %d: irrelevant thread body not sliced away:\n%s", seed, res.Slice)
		}
		if res.Stats.SkippedThreads == 0 {
			t.Fatalf("seed %d: expected a whole-thread skip, stats %+v", seed, res.Stats)
		}
		break
	}
	if !found {
		t.Skip("no seed produced a span-atomic chatter thread")
	}
}

// diffCorpus is the seed corpus for the single-threaded equivalence
// guarantee: programs from the paper plus the repository examples.
func diffCorpus(t *testing.T) map[string]*cfa.Program {
	t.Helper()
	progs := map[string]*cfa.Program{
		"ex2-unshaded": compile.MustSource(ex2Unshaded),
		"ex2-shaded":   compile.MustSource(ex2Shaded),
		"ex1":          compile.MustSource(ex1),
	}
	files, _ := filepath.Glob("../../testdata/*.mc")
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compile.Source(string(src))
		if err != nil {
			continue // some examples need the oracle's harness stubs
		}
		progs[filepath.Base(f)] = prog
	}
	return progs
}

// TestConcLiftDifferential is the PR's regression keystone: slicing a
// lifted single-threaded trace through the concurrent walker must be
// bit-identical to the sequential slicer — same taken bits, same live
// set, same per-kind stats, same walked-edge and skipped-frame counts.
func TestConcLiftDifferential(t *testing.T) {
	for name, prog := range diffCorpus(t) {
		t.Run(name, func(t *testing.T) {
			for _, long := range []bool{false, true} {
				p := cfa.FindPathToError(prog, cfa.FindOptions{PreferLong: long, MaxEdgeUses: 2})
				if p == nil {
					t.Skip("no error path")
				}
				s := core.New(prog)
				seq, err := s.Slice(p)
				if err != nil {
					t.Fatal(err)
				}
				conc, err := s.ConcSlice(cfa.LiftPath(p))
				if err != nil {
					t.Fatal(err)
				}
				if len(conc.Taken) != len(seq.Taken) {
					t.Fatalf("taken length %d vs %d", len(conc.Taken), len(seq.Taken))
				}
				for i := range seq.Taken {
					if seq.Taken[i] != conc.Taken[i] {
						t.Fatalf("long=%v: taken[%d] diverges: seq %v conc %v (%s)",
							long, i, seq.Taken[i], conc.Taken[i], p[i])
					}
				}
				if seq.Live.String() != conc.Live.String() {
					t.Fatalf("live sets diverge: seq %s conc %s", seq.Live, conc.Live)
				}
				ss, cs := seq.Stats, conc.Stats
				got := fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%d",
					cs.WalkedEdges, cs.SkippedFrames, cs.TakenAssign, cs.TakenAssume,
					cs.TakenCall, cs.TakenReturn, cs.SliceEdges, cs.SliceBlocks)
				want := fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%d",
					ss.WalkedEdges, ss.SkippedFrames, ss.TakenAssign, ss.TakenAssume,
					ss.TakenCall, ss.TakenReturn, ss.SliceEdges, ss.SliceBlocks)
				if got != want {
					t.Fatalf("stats diverge: conc %s vs seq %s", got, want)
				}
				if cs.RacyEdges != 0 || cs.Threads != 1 {
					t.Fatalf("lifted trace grew phantom concurrency: %+v", cs)
				}
			}
		})
	}
}

// TestConcStaleThreadLiveSetDiverges hunts interleavings on which the
// planted stale-snapshot bug actually changes the slice, proving the
// mode is not inert. The oracle campaign is what proves it unsound.
func TestConcStaleThreadLiveSetDiverges(t *testing.T) {
	prog := compile.MustSource(concStaleProbe)
	good := core.New(prog)
	bad := core.NewWithOptions(prog, core.Options{Unsound: core.UnsoundStaleThreadLiveSet})
	for seed := uint64(0); seed < 3000; seed++ {
		st := interp.NewState(prog, wp.NewAddrMap(prog))
		r := interp.ConcRun(prog, st, interp.ZeroInputs{}, interp.ConcRunOptions{
			RecordTrace: true, Seed: seed,
		})
		if !r.ReachedError {
			continue
		}
		g, err := good.ConcSlice(r.Trace)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bad.ConcSlice(r.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if g.Stats.SliceEdges > b.Stats.SliceEdges {
			return // the stale snapshot dropped something the sound walk kept
		}
	}
	t.Fatal("UnsoundStaleThreadLiveSet never changed any slice; the planted bug is inert")
}

// concStaleProbe needs main's two global writes interleaved with the
// reader's two reads (write gz, read gz, write gx, read gx): backward,
// the first merge from the reader snapshots its live set before the gz
// demand exists, so the stale mode drops main's gz write.
const concStaleProbe = `
int gx;
int gz;
int sx;
int sz;

void reader() {
  sz = gz;
  sx = gx;
}

void main() {
  spawn reader();
  gz = 5;
  gx = 3;
  join;
  if (sz == 5) {
    if (sx == 3) {
      error;
    }
  }
}
`

// TestConcSliceSharedSlicer slices the same interleaved trace from 8
// goroutines through one shared Slicer (shared alias/modref/dataflow
// tables) with concurrent feasibility checks against the shared solver
// cache; under -race this is the thread-safety proof for conc slicing.
func TestConcSliceSharedSlicer(t *testing.T) {
	prog := compile.MustSource(concWriterJoined)
	tr := concErrorTrace(t, prog, 50)
	s := core.New(prog)
	want, err := s.ConcSlice(tr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := s.ConcSlice(tr)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if res.Slice.String() != want.Slice.String() {
					t.Errorf("goroutine %d: slice diverged", g)
					return
				}
				// Exercise the shared solver path under -race too; the
				// verdict itself is not the point here.
				s.CheckFeasibility(res.Slice.ThreadPath(0))
			}
		}(g)
	}
	wg.Wait()
}

// TestConcSliceRejectsMalformed: validation runs before slicing.
func TestConcSliceRejectsMalformed(t *testing.T) {
	prog := compile.MustSource(concWriterJoined)
	tr := concErrorTrace(t, prog, 50)
	mangled := append(cfa.ConcTrace{}, tr...)
	mangled[0].TID = 3 // thread 3 was never spawned
	if _, err := core.New(prog).ConcSlice(mangled); err == nil {
		t.Fatal("malformed trace accepted")
	}
}
