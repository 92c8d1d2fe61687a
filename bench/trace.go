package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one operation (one plan, one request, one simulation
// run) share Op; Parent is the span that caused this one (0 = none).
//
// Reported marks a span whose duration the program under test measured
// itself (Config.Timings, BackendStats.Seconds) and the benchmark only
// placed on the timeline: its start is its parent's start, its end start
// plus the reported duration. Two reported siblings may therefore overlap
// where the program ran them one after the other.
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       string `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Reported bool   `json:"reported,omitempty"`
}

// tracer keeps spans and counters in memory and writes them out when the
// traced run ends. A nil *tracer is the tracing-off state: every method is
// a no-op, so a workload's timed path carries no span bookkeeping.
type tracer struct {
	workload string
	t0       time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, StartNS: now, Workload: t.workload})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// reported places a duration the program measured itself under parent.
func (t *tracer) reported(name string, parent int, op string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := int64(time.Since(t.t0))
	if parent > 0 {
		start = t.spans[parent-1].StartNS
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op,
		StartNS: start, EndNS: start + int64(d), Workload: t.workload, Reported: true})
}

// count adds v to a named counter recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// max raises a named gauge to v.
func (t *tracer) max(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.counts[name] {
		t.counts[name] = v
	}
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// durationsMs returns the duration of every span called name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// totalMs sums the durations of every span called name.
func (t *tracer) totalMs(name string) float64 {
	sum := 0.0
	for _, d := range t.durationsMs(name) {
		sum += d
	}
	return sum
}

// selfMs is the layer's own time: each span's duration minus the part of
// that interval its direct children cover (overlapping children are merged
// first, so concurrent children are not subtracted twice).
func (t *tracer) selfMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	var self int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		self += s.EndNS - s.StartNS - covered(children[s.ID], s.StartNS, s.EndNS)
	}
	return float64(self) / 1e6
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, c := range iv {
		s, e := c[0], c[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// write stores the trace as bench/out/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Spans    []span             `json:"spans"`
		Counts   map[string]float64 `json:"counts"`
	}{t.workload, t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
