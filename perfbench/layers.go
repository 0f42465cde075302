package main

import (
	"fmt"
	"sort"
)

// layerUnits is the per-layer metric catalogue (BENCHMARK.json's
// per_layer list). Times are milliseconds per round, or per set-up for
// the layers a workload only runs while setting up; counts are per
// round. Every traced run reports every metric, with 0 for a layer its
// workload does not drive (METRICS.md says which layers each workload
// drives).
var layerUnits = map[string]string{
	"parser.parse_ms":           "ms",
	"types.check_ms":            "ms",
	"instrument.instrument_ms":  "ms",
	"cfa.build_ms":              "ms",
	"cfa.walk_ms":               "ms",
	"cfa.trace_edges":           "count",
	"alias.analyze_ms":          "ms",
	"modref.analyze_ms":         "ms",
	"dataflow.analyze_ms":       "ms",
	"cegar.new_ms":              "ms",
	"cegar.check_ms":            "ms",
	"cegar.self_ms":             "ms",
	"cegar.work":                "count",
	"cegar.refinements":         "count",
	"cegar.predicates":          "count",
	"cegar.solver_calls":        "count",
	"cegar.cache_hit_ratio":     "ratio",
	"cegar.post_memo_hits":      "count",
	"cegar.alloc_mb":            "MB",
	"cegar.mallocs":             "count",
	"core.slice_ms":             "ms",
	"core.input_edges":          "count",
	"core.walked_edges":         "count",
	"core.slice_edges":          "count",
	"core.skipped_frames":       "count",
	"core.summary_hits":         "count",
	"core.alloc_mb":             "MB",
	"wp.encode_ms":              "ms",
	"smt.solve_ms":              "ms",
	"smt.unknown":               "count",
	"service.server_ms":         "ms",
	"service.http_ms":           "ms",
	"service.check_ms":          "ms",
	"service.slice_ms":          "ms",
	"service.program_hit_share": "ratio",
	"service.solver_cache_hits": "count",
	"service.post_memo_hits":    "count",
	"service.summary_hits":      "count",
	"service.shed":              "count",
	"runtime.gc_cycles":         "count",
	"runtime.gc_cpu_share":      "ratio",
	"trace.ops_per_s":           "1/s",
}

// completeLayers checks a traced run's layer metrics against the
// catalogue and adds the layers the workload does not drive as 0.
func completeLayers(m map[string]metric) (map[string]metric, error) {
	var unknown []string
	for name, v := range m {
		if unit, ok := layerUnits[name]; !ok || unit != v.Unit {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("layer metrics outside the catalogue: %v", unknown)
	}
	for name, unit := range layerUnits {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
	return m, nil
}

// sliceCounts accumulates core.Slicer result counters.
type sliceCounts struct {
	input, walked, slice, skippedFrames, summaryHits int
	allocBytes                                       uint64
	unknown                                          int
}

// addSliceLayers adds the core and smt counters of a traced run: for
// each, the median over rounds of the per-round sum.
func addSliceLayers(m map[string]metric, rounds []sliceCounts) {
	med := func(f func(sliceCounts) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, c := range rounds {
			xs[i] = f(c)
		}
		return median(xs)
	}
	m["core.input_edges"] = metric{med(func(c sliceCounts) float64 { return float64(c.input) }), "count"}
	m["core.walked_edges"] = metric{med(func(c sliceCounts) float64 { return float64(c.walked) }), "count"}
	m["core.slice_edges"] = metric{med(func(c sliceCounts) float64 { return float64(c.slice) }), "count"}
	m["core.skipped_frames"] = metric{med(func(c sliceCounts) float64 { return float64(c.skippedFrames) }), "count"}
	m["core.summary_hits"] = metric{med(func(c sliceCounts) float64 { return float64(c.summaryHits) }), "count"}
	m["core.alloc_mb"] = metric{med(func(c sliceCounts) float64 { return float64(c.allocBytes) / 1e6 }), "MB"}
	m["smt.unknown"] = metric{med(func(c sliceCounts) float64 { return float64(c.unknown) }), "count"}
}
