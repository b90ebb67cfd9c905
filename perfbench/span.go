package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself carries no hooks). parent is the index of the
// enclosing span, −1 at the top.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer times the
// call and records nothing, which is how the untraced side of the overhead
// comparison runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indices of the spans enclosing the current call

	// inject stretches every call into the named layer by the given share
	// of its own duration, inside the span. It exists so the self-test can
	// check that a slowdown is attributed to the layer that caused it.
	inject map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn as one call into layer and returns its duration.
func (t *tracer) do(layer string, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: layer, Parent: parent})
	t.open = append(t.open, idx)
	t0 := time.Now()
	fn()
	if f := t.inject[layer]; f > 0 {
		spinFor(time.Duration(f * float64(time.Since(t0))))
	}
	t1 := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].StartNs = int64(t0.Sub(t.epoch))
	t.spans[idx].EndNs = int64(t1.Sub(t.epoch))
	return t1.Sub(t0)
}

// spinFor busy-waits, so an injected delay costs CPU like real work would.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// selfTimes sums each layer's self time: span durations minus the part of
// them that child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - child[i])
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
