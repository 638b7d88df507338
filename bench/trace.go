package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark's own code into a layer.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Op      int    `json:"op"`     // spans of one operation share this
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op, so the timed loop carries only a
// nil check.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, StartNS: now, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// timed runs f inside a span and returns its duration in nanoseconds.
func (r *recorder) timed(name string, parent, op int, f func() error) (int64, error) {
	id := r.start(name, parent, op)
	t0 := time.Now()
	err := f()
	d := int64(time.Since(t0))
	r.end(id)
	return d, err
}

// write saves the spans; the untraced run's nil recorder writes nothing.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
