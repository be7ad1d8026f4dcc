package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// one layer. Spans of one cell or library call share ID; Parent is the
// index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) * 1e-9 }

// tracer keeps spans in memory until the run ends. Traced runs are
// single-goroutine, so it needs no locking. A nil *tracer records
// nothing, so untraced runs share the code path at no cost.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string, id int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(since(t.t0))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// add records a finished span with explicit times, nested in the
// innermost open span.
func (t *tracer) add(name string, id int, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// do runs f inside a span.
func (t *tracer) do(name string, id int, f func() error) error {
	i := t.begin(name, id)
	err := f()
	t.end(i)
	return err
}

// durations returns the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// total returns the summed duration of the spans named name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfSeconds returns the summed self time of the spans named name: each
// span's duration minus the time its direct children cover. Children of
// one span never overlap, because traced runs are single-goroutine.
func (t *tracer) selfSeconds(name string) float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := 0.0
	for i, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start-child[i]) * 1e-9
		}
	}
	return sum
}

// spanSummary is one span name's count, total and self time.
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// write stores the spans, with a per-name summary, as JSON under
// .bench_build/ in the working directory and returns the path.
func (t *tracer) write(cfg config) (string, error) {
	summary := map[string]spanSummary{}
	for _, s := range t.spans {
		summary[s.Name] = spanSummary{}
	}
	for name := range summary {
		summary[name] = spanSummary{Count: len(t.durations(name)), TotalS: t.total(name), SelfS: t.selfSeconds(name)}
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	data, err := json.Marshal(map[string]any{"summary": summary, "spans": t.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
