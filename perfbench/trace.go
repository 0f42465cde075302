package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// span is one timed call into a layer's exported function, recorded by
// the benchmark around the call. An op's root span has Parent 0.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the run's epoch
	EndNS   int64  `json:"end_ns"`
}

// opInfo places an op in the run: the set-up or round it belongs to.
type opInfo struct {
	phase string // phaseSetup or phaseRound
	index int
}

const (
	phaseSetup = "setup"
	phaseRound = "round"
)

// tracer keeps a run's spans in memory until the run ends. Every method
// is a no-op on a nil tracer, which is what untraced runs use. The
// benchmark drives the program from one goroutine, so a tracer needs
// no locking.
type tracer struct {
	epoch time.Time
	spans []span
	ops   []opInfo // op id - 1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp allocates the id of an op of the given set-up or round.
func (t *tracer) newOp(phase string, index int) int {
	if t == nil {
		return 0
	}
	t.ops = append(t.ops, opInfo{phase, index})
	return len(t.ops)
}

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNS: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// totals returns, for each set-up or round of the phase, the summed
// duration in milliseconds of the spans with any of the given names.
func (t *tracer) totals(phase string, names ...string) []float64 {
	n := 0
	for _, o := range t.ops {
		if o.phase == phase && o.index+1 > n {
			n = o.index + 1
		}
	}
	out := make([]float64, n)
	for _, s := range t.spans {
		if o := t.ops[s.Op-1]; o.phase == phase && slices.Contains(names, s.Name) {
			out[o.index] += ms(s.dur())
		}
	}
	return out
}

// layerMS is the median over the phase's set-ups or rounds of the time
// spent in spans with any of the given names.
func (t *tracer) layerMS(phase string, names ...string) float64 {
	xs := t.totals(phase, names...)
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// selfTime is a span's duration less the part of it its children
// cover. account checks the invariant behind it.
func selfTime(parent span, children []span) (self, childSum time.Duration) {
	sort.Slice(children, func(i, j int) bool { return children[i].StartNS < children[j].StartNS })
	var covered int64
	cur := parent.StartNS
	for _, c := range children {
		childSum += c.dur()
		lo, hi := max(c.StartNS, cur), min(c.EndNS, parent.EndNS)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return parent.dur() - time.Duration(covered), childSum
}

// account checks the traced run's bookkeeping: every span is closed,
// and for every span with children, child time plus self time equals
// its duration within 2% (children outside their parent, or
// overlapping one another, break this). It returns one line per
// violation.
func (t *tracer) account() []string {
	var bad []string
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.EndNS < s.StartNS || s.EndNS == 0 {
			bad = append(bad, fmt.Sprintf("span %d %s never closed", s.ID, s.Name))
			continue
		}
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for id, cs := range kids {
		p := t.spans[id-1]
		self, childSum := selfTime(p, cs)
		if self < 0 {
			bad = append(bad, fmt.Sprintf("span %d %s: negative self time %v", p.ID, p.Name, self))
		}
		if d := p.dur(); math.Abs(float64(childSum+self-d)) > 0.02*float64(d) {
			bad = append(bad, fmt.Sprintf("span %d %s: children %v + self %v != duration %v",
				p.ID, p.Name, childSum, self, d))
		}
	}
	sort.Strings(bad)
	return bad
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
