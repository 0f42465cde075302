package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. All methods are safe for concurrent
// use; metric handles are stable pointers, so the intended pattern is
// to look a metric up once (package-level var) and update it through
// the handle on the hot path.
//
// A disabled registry (SetEnabled(false), the initial state of the
// Default registry) turns every update into a single atomic load plus
// a branch; reads then observe whatever was recorded while enabled.
type Registry struct {
	on atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.on.Store(true)
	return r
}

// defaultRegistry is the process-wide registry. It starts disabled so
// uninstrumented runs pay only the atomic-load fast path; the
// binaries enable it when observability is requested (see Setup).
var defaultRegistry = func() *Registry {
	r := NewRegistry()
	r.on.Store(false)
	return r
}()

// Default returns the process-wide registry shared by the pipeline
// packages.
func Default() *Registry { return defaultRegistry }

// SetEnabled switches the registry's no-op mode. Disabling does not
// clear recorded values.
func (r *Registry) SetEnabled(on bool) { r.on.Store(on) }

// Enabled reports whether updates are being recorded.
func (r *Registry) Enabled() bool { return r.on.Load() }

// Reset zeroes every registered metric (for tests).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

// Counter returns (registering on first use) the named monotonically
// increasing counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, on: &r.on}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, on: &r.on}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
// Buckets are powers of two over the observed unit (nanoseconds for
// ObserveDuration, the caller's unit for Observe).
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, on: &r.on}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing counter with an atomic fast
// path.
type Counter struct {
	name string
	on   *atomic.Bool
	v    atomic.Int64
}

// Add increments the counter by n (no-op while the registry is
// disabled).
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous value with atomic Set/Add/SetMax.
type Gauge struct {
	name string
	on   *atomic.Bool
	v    atomic.Int64
}

// Set stores v (no-op while the registry is disabled).
func (g *Gauge) Set(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (a high-water mark,
// e.g. the most entailments one abstract post computed).
func (g *Gauge) SetMax(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// histBuckets is the bucket count: bucket i holds observations v with
// 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1), covering the full int64
// range.
const histBuckets = 64

// Histogram is a fixed-bucket (power-of-two) histogram of
// non-negative int64 observations: latencies in nanoseconds, formula
// sizes, slice percentages. Observation is lock-free: one atomic add
// into the bucket plus count and sum updates.
type Histogram struct {
	name    string
	on      *atomic.Bool
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to zero; no-op
// while the registry is disabled).
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.on.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveDuration records a latency in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// bucketOf maps v to its bucket index: the number of bits needed to
// represent v (so bucket i has upper bound 2^i).
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observation (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1)
// from the bucket boundaries: the upper bound of the bucket in which
// the quantile falls.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i >= 63 {
				return int64(^uint64(0) >> 1)
			}
			return int64(1) << uint(i)
		}
	}
	return int64(1) << 62
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Snapshot is a point-in-time copy of every metric in the registry,
// sorted by name within each kind.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram's snapshot. Buckets lists only the
// non-empty buckets as (upper bound, count) pairs.
type HistogramValue struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"n"`
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.v.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.v.Load()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{Name: name, Count: h.count.Load(), Sum: h.sum.Load()}
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				ub := int64(^uint64(0) >> 1)
				if i < 63 {
					ub = int64(1) << uint(i)
				}
				hv.Buckets = append(hv.Buckets, BucketCount{UpperBound: ub, Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (counters as `counter`, gauges as `gauge`,
// histograms as cumulative-bucket `histogram`).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.Name, g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.Name); err != nil {
			return err
		}
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.Name, b.UpperBound, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			h.Name, h.Count, h.Name, h.Sum, h.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
