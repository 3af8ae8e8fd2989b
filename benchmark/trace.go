package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded from
// the benchmark's own files. Spans of one cell share Cell; Parent is the
// index of the span that caused this one (-1 for a root).
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"` // always 0: the traced pass is one repetition
	Cell     int    `json:"cell"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// SelfNS is the duration minus the part of it child spans cover;
	// filled in by finish.
	SelfNS int64 `json:"self_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the benchmark ends. Cells of a
// sweep record concurrently, so appends are locked; the lock is taken
// twice per span, which is the tracing overhead trace.overhead_share
// reports.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// start opens a span and returns its index, to be passed to end and used
// as the parent of its children.
func (r *recorder) start(name string, cell, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload,
		Cell: cell, Parent: parent, StartNS: now, EndNS: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].EndNS = now
	return r.spans[id].duration()
}

// in times fn as a span.
func (r *recorder) in(name string, cell, parent int, fn func(id int)) time.Duration {
	id := r.start(name, cell, parent)
	fn(id)
	return r.end(id)
}

// finish computes every span's self time and returns the spans.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	return r.spans
}

// selfTimes sets each span's self time to its duration minus the part of
// that interval its direct children cover. Children of one parent run one
// after another here (a cell is driven by one goroutine), so the covered
// part is the sum of the children's durations, clipped to the parent.
func selfTimes(spans []span) {
	for i := range spans {
		spans[i].SelfNS = spans[i].EndNS - spans[i].StartNS
	}
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := &spans[s.Parent]
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			p.SelfNS -= hi - lo
		}
	}
	for i := range spans {
		spans[i].SelfNS = max(spans[i].SelfNS, 0)
	}
}

// unaccountedShare is 1 − Σ self times of the phases under root ÷ root's
// duration: the part of the traced wall no phase span covers.
func unaccountedShare(spans []span, root int) float64 {
	if root < 0 || root >= len(spans) || spans[root].duration() <= 0 {
		return 0
	}
	return float64(spans[root].SelfNS) / float64(spans[root].duration())
}

func writeTraceFile(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
