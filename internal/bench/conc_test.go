package bench

import (
	"strings"
	"testing"
)

// TestConcTwinSources pins the twin property at the source level: the
// threaded twin differs from the serialized one only by spawn
// keywords and the join.
func TestConcTwinSources(t *testing.T) {
	cfg := DefaultConcTwinConfig()
	threaded := ConcTwinSource(cfg, true)
	serial := ConcTwinSource(cfg, false)
	despawned := strings.ReplaceAll(threaded, "spawn ", "")
	despawned = strings.ReplaceAll(despawned, "  join;\n", "")
	if despawned != serial {
		t.Fatalf("twins are not spawn/join-only apart:\n--- threaded despawned ---\n%s\n--- serial ---\n%s",
			despawned, serial)
	}
}

// TestCompareConcTwin gates the twin comparison: a genuinely
// concurrent trace (>= 2 threads, racy edges present) whose
// cross-thread walk stays within 1.5x of the serialized twin's walked
// edges.
func TestCompareConcTwin(t *testing.T) {
	c, err := CompareConcTwin(DefaultConcTwinConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Threads < 2 {
		t.Errorf("threaded twin ran %d threads, want >= 2", c.Threads)
	}
	if c.RacyEdges == 0 {
		t.Error("threaded twin produced no racy edges — the twin is not concurrent")
	}
	if c.SerialWalked == 0 || c.ThreadedWalked == 0 {
		t.Fatalf("degenerate walk counts: threaded %d, serial %d", c.ThreadedWalked, c.SerialWalked)
	}
	if c.WalkRatio > 1.5 {
		t.Errorf("cross-thread walk visited %.2fx the serialized twin's edges (%d vs %d), gate is 1.5x",
			c.WalkRatio, c.ThreadedWalked, c.SerialWalked)
	}
}
