package cegar_test

import (
	"runtime"
	"testing"

	"pathslice/internal/cegar"
	"pathslice/internal/compile"
	"pathslice/internal/logic"
)

// TestCoveredPostAllocatesNothing: a post that the memo answers in full
// and whose successor the cover set already covers keeps nothing, so it
// allocates nothing. Building the successor's state, valuation or
// context key before the cover check would each cost an object.
func TestCoveredPostAllocatesNothing(t *testing.T) {
	prog := compile.MustSource(`
		int x; int y;
		void bump() { x = y + 1; }
		void main() {
			bump();
			if (x > 3) { error; }
		}`)
	gt := func(v string, k int64) logic.Formula {
		return logic.Cmp{Op: logic.CmpGt, X: logic.Var{Name: v}, Y: logic.Const{V: k}}
	}
	fs := []logic.Formula{gt("x", 3), gt("y", 2), gt("y", 5)}
	c := cegar.New(prog, cegar.Options{UseSlicing: true})
	got := cegar.CoveredPostAllocs(c, fs, []int8{0, 1, 0})
	// AllocsPerRun repeats the post 101 times; the source state and one
	// successor are kept.
	if got.MemoHits != 101 || got.Kept != 2 {
		t.Fatalf("the probe must repeat a memoized, covered post: %+v", got)
	}
	if got.Allocs != 0 {
		t.Errorf("a memoized, covered post allocated %.1f objects, want 0", got.Allocs)
	}
}

// TestCheckerKeepsNoExploration: a long-lived checker (cmd/slicerd
// keeps one per cached program) must pin nothing of a finished reach,
// or each would hold its last reachability tree: after Check returns
// and a GC, the last reach's root state is gone. A checker planted to
// keep its exploration must fail the same probe.
func TestCheckerKeepsNoExploration(t *testing.T) {
	prog := compile.MustSource(determinismPrograms["call-chain"])
	target := prog.ErrorLocs()[0]
	opts := cegar.Options{UseSlicing: true}

	c := cegar.New(prog, opts)
	collected := cegar.WatchReachRoots(c)
	if res := c.Check(target); res.Refinements == 0 {
		t.Fatalf("the check must refine at least once: %+v", res)
	}
	if !collected() {
		t.Error("the checker still holds the last reach's root state after Check returned")
	}
	runtime.KeepAlive(c)

	planted := cegar.New(prog, opts)
	cegar.PlantKeepExploration(planted)
	plantedCollected := cegar.WatchReachRoots(planted)
	planted.Check(target)
	if plantedCollected() {
		t.Error("a checker that keeps its exploration went unnoticed")
	}
	runtime.KeepAlive(planted)
}
