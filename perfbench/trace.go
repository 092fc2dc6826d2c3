package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one layer call made by the benchmark, timed from outside the
// program. Spans of one operation (a pass or a job) share Run; Parent is the
// index of the enclosing span, -1 for the operation's root.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	Parent int    `json:"parent"`
	// StartNS and EndNS are offsets from the tracer's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// AllocBytes, GCCPU and CPU are process-wide runtime counter deltas
	// over the span.
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_s"`
	CPU        float64 `json:"cpu_s"`

	rt rtSample
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced operations run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, run, parent int) int {
	if t == nil {
		return -1
	}
	rt := readRuntime()
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: parent, StartNS: int64(now), rt: rt})
	return len(t.spans) - 1
}

// end closes the span opened as id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	rt := readRuntime()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = int64(now)
	s.AllocBytes = rt.allocBytes - s.rt.allocBytes
	s.GCCPU = rt.gcCPU - s.rt.gcCPU
	s.CPU = rt.totalCPU - s.rt.totalCPU
}

// named returns every span called name, with its self time: its duration
// minus the part of it that its children cover.
func (t *tracer) named(name string) ([]span, []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	var spans []span
	var self []time.Duration
	for i, s := range t.spans {
		if s.Name == name {
			spans = append(spans, s)
			self = append(self, s.dur()-time.Duration(covered(children[i])))
		}
	}
	return spans, self
}

// covered returns the total length the intervals cover.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// selfMS is the median self time of the named layer in milliseconds.
func (t *tracer) selfMS(name string) float64 {
	_, self := t.named(name)
	xs := make([]float64, len(self))
	for i, d := range self {
		xs[i] = ms(d)
	}
	return median(xs)
}

// unattributed is the median share of the named spans' time that no child
// span covers.
func (t *tracer) unattributed(name string) float64 {
	spans, self := t.named(name)
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(self[i]) / float64(s.dur())
	}
	return median(xs)
}

// write stores the spans and the fingerprint as JSON under dir.
func (t *tracer) write(dir string, o options, fp map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc := map[string]any{"fingerprint": fp, "spans": t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	return path, os.WriteFile(path, b, 0o644)
}
