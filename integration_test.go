package pathslice

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildTools compiles every cmd/* binary once into a temp dir and
// returns their paths by name.
func buildTools(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	tools := []string{"pathslice", "blastlite", "benchgen", "minirun", "cfadump"}
	out := make(map[string]string, len(tools))
	for _, tool := range tools {
		bin := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, b)
		}
		out[tool] = bin
	}
	return out
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	return string(b), err
}

// runExit is run for the pipeline binaries, which encode their verdict
// in the exit code (docs/ROBUSTNESS.md): it asserts the expected code
// instead of treating every non-zero exit as a failure.
func runExit(t *testing.T, wantCode int, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%v\n%s", err, b)
		}
		code = ee.ExitCode()
	}
	if code != wantCode {
		t.Fatalf("exit code %d, want %d\n%s", code, wantCode, b)
	}
	return string(b)
}

func TestCLIsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	tools := buildTools(t)

	t.Run("pathslice-ex2", func(t *testing.T) {
		// A feasible slice exits 3 under the shared exit-code scheme.
		out := runExit(t, 3, tools["pathslice"], "-long", "-unroll", "2", "testdata/ex2.mc")
		if !strings.Contains(out, "FEASIBLE") {
			t.Errorf("Ex2 slice must be feasible:\n%s", out)
		}
	})

	t.Run("pathslice-safe", func(t *testing.T) {
		out := runExit(t, 0, tools["pathslice"], "-long", "-unroll", "2", "-early", "testdata/safe.mc")
		if !strings.Contains(out, "INFEASIBLE") {
			t.Errorf("safe.mc candidate must be infeasible:\n%s", out)
		}
	})

	t.Run("pathslice-summaries-by-default", func(t *testing.T) {
		// With no flags the slicer memoizes frame summaries and reports
		// the table's traffic per target: each walked callee frame is
		// recorded (a miss) on this straight-line call sequence.
		src := filepath.Join(t.TempDir(), "calls.mc")
		prog := `int x;
int y;
void bump() { x = x + 1; }
void step() { y = y + x; }
void main() {
  x = nondet();
  bump();
  step();
  bump();
  step();
  if (x > 100) { error; }
}
`
		if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
			t.Fatal(err)
		}
		out := runExit(t, 3, tools["pathslice"], src)
		if !regexp.MustCompile(`summaries: \d+ hits, [1-9]\d* misses`).MatchString(out) {
			t.Errorf("default run must print a summaries line with recorded frames:\n%s", out)
		}
	})

	t.Run("pathslice-portfolio-batch-removed", func(t *testing.T) {
		// The batched feasibility route is gone, and its flag with it:
		// the flag package rejects it as a usage error.
		out := runExit(t, 2, tools["pathslice"], "-portfolio-batch", "testdata/ex2.mc")
		if !strings.Contains(out, "flag provided but not defined: -portfolio-batch") {
			t.Errorf("want an unknown-flag error:\n%s", out)
		}
	})

	t.Run("pathslice-trace-annotations", func(t *testing.T) {
		out, err := run(t, tools["pathslice"], "-trace", "testdata/overdraft.mc")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"==>", "live", "step"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in -trace output:\n%s", want, out)
			}
		}
	})

	t.Run("blastlite-safe-program", func(t *testing.T) {
		out, err := run(t, tools["blastlite"], "testdata/safe.mc")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "safe") {
			t.Errorf("verdict missing:\n%s", out)
		}
	})

	t.Run("blastlite-file-property", func(t *testing.T) {
		// The buggyuse cluster has a real bug, so the run exits 3.
		out := runExit(t, 3, tools["blastlite"], "-file-property", "testdata/fileprop.mc")
		if !strings.Contains(out, "cluster safeuse") || !strings.Contains(out, "cluster buggyuse") {
			t.Errorf("clusters missing:\n%s", out)
		}
		// buggyuse must be reported, safeuse must not.
		if !strings.Contains(out, "error") {
			t.Errorf("buggyuse not reported:\n%s", out)
		}
	})

	t.Run("benchgen-list-and-emit", func(t *testing.T) {
		out, err := run(t, tools["benchgen"], "-list")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, name := range []string{"fcron", "wuftpd", "gcc", "muh"} {
			if !strings.Contains(out, name) {
				t.Errorf("missing %s in -list:\n%s", name, out)
			}
		}
		out, err = run(t, tools["benchgen"], "-scale", "0.1", "fcron")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "void main()") {
			t.Errorf("no program emitted:\n%s", out)
		}
	})

	t.Run("minirun-witness-replay", func(t *testing.T) {
		// The overdraft bug: amount = 101 overdraws the balance.
		out, err := run(t, tools["minirun"], "-in", "101", "testdata/overdraft.mc")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "REACHED ERROR") {
			t.Errorf("input 101 must reach the error:\n%s", out)
		}
		out, err = run(t, tools["minirun"], "-in", "5", "testdata/overdraft.mc")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "exited normally") {
			t.Errorf("input 5 must be fine:\n%s", out)
		}
	})

	t.Run("cfadump-text-and-dot", func(t *testing.T) {
		out, err := run(t, tools["cfadump"], "testdata/ex2.mc")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "cfa main") {
			t.Errorf("text dump missing:\n%s", out)
		}
		out, err = run(t, tools["cfadump"], "-dot", "-slice", "testdata/ex2.mc")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "digraph program") || !strings.Contains(out, "color=red, penwidth=2") {
			t.Errorf("dot output missing slice highlight:\n%s", out)
		}
	})
}
