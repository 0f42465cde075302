// Command benchgen emits the synthetic benchmark programs that stand in
// for the paper's C subjects (Table 1 plus muh and gcc). Use it to
// inspect the workloads or to feed blastlite/pathslice by hand.
//
// With -callheavy it instead emits the gcc-class summary-sweep subject
// (bench.CallHeavySource): deep call chains invoked repeatedly from a
// loop, the trace shape on which the frame summaries of internal/summ
// pay off. -chains, -depth, and -bodyops shape it; feed the output to
// `pathslice -long -trace-file t.pstrc -stream` to reproduce by hand
// the summary sweep that the root TestPerformanceGates gates.
//
// With -threads it emits the concurrency twin pair
// (bench.ConcTwinSource): the same worker workload once with
// spawn/join and once serialized, whose walked-edge ratio
// TestCompareConcTwin gates at 1.5x (docs/CONCURRENCY.md). -workers
// and -bodyops shape it; record an interleaving with `minirun -conc
// -conc-trace-out` and slice it with `pathslice -conc-trace`.
//
// Usage:
//
//	benchgen [-scale f] [-list] [-o dir] [name]
//	benchgen -callheavy [-chains n] [-depth n] [-bodyops n] [-o dir]
//	benchgen -threads [-workers n] [-bodyops n] [-o dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pathslice/internal/bench"
	"pathslice/internal/synth"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	list := flag.Bool("list", false, "list available benchmark names")
	outDir := flag.String("o", "", "write <name>.mc files into this directory instead of stdout")
	callHeavy := flag.Bool("callheavy", false, "emit the gcc-class call-heavy summary-sweep subject")
	chains := flag.Int("chains", bench.DefaultGccConfig().Chains, "call-heavy: distinct call chains per loop iteration")
	depth := flag.Int("depth", bench.DefaultGccConfig().Depth, "call-heavy: nested functions per chain")
	bodyOps := flag.Int("bodyops", bench.DefaultGccConfig().BodyOps, "call-heavy/threads: straight-line ops per body")
	threads := flag.Bool("threads", false, "emit the concurrency twin pair (threaded + serialized)")
	workers := flag.Int("workers", bench.DefaultConcTwinConfig().Workers, "threads: worker procedures per twin")
	flag.Parse()

	if *threads {
		cfg := bench.ConcTwinConfig{Workers: *workers, BodyOps: *bodyOps}
		twins := []struct {
			name     string
			threaded bool
		}{{"threaded", true}, {"serialized", false}}
		for _, tw := range twins {
			src := bench.ConcTwinSource(cfg, tw.threaded)
			if *outDir == "" {
				fmt.Printf("// ===== %s =====\n%s", tw.name, src)
				continue
			}
			path := filepath.Join(*outDir, tw.name+".mc")
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchgen:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		return
	}

	if *callHeavy {
		src := bench.CallHeavySource(bench.CallHeavyConfig{Chains: *chains, Depth: *depth, BodyOps: *bodyOps})
		if *outDir == "" {
			fmt.Print(src)
			return
		}
		path := filepath.Join(*outDir, "callheavy.mc")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
		return
	}

	profiles := synth.PaperProfiles(*scale)
	profiles = append(profiles, synth.MuhProfile(*scale), synth.GccProfile(*scale))

	if *list {
		for _, p := range profiles {
			fmt.Printf("%-8s %-22s paper: %s LOC, %d procs, checks %s\n",
				p.Name, p.Description, p.PaperLOC, p.PaperProcedures, p.PaperChecks)
		}
		return
	}

	selected := profiles
	if flag.NArg() == 1 {
		selected = nil
		for _, p := range profiles {
			if p.Name == flag.Arg(0) {
				selected = []synth.Profile{p}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchgen: unknown benchmark %q (try -list)\n", flag.Arg(0))
			os.Exit(2)
		}
	}

	for _, p := range selected {
		src := synth.Generate(p)
		if *outDir == "" {
			if len(selected) > 1 {
				fmt.Printf("// ===== %s =====\n", p.Name)
			}
			fmt.Print(src)
			continue
		}
		path := filepath.Join(*outDir, p.Name+".mc")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
