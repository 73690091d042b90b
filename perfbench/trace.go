package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanRecorder keeps the spans of a traced run in memory: one per call the
// benchmark makes into a layer, nested under the operation that caused it.
// A nil recorder records nothing, so untraced operations pay one nil check.
type spanRecorder struct {
	origin time.Time
	spans  []span
	open   []int // indices of the spans not yet ended, innermost last
}

// span is one recorded interval. Parent is the index of the enclosing span
// (-1 for an operation); Op is shared by every span of one operation.
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Duration // since the recorder's origin
	Dur    time.Duration
}

func newSpanRecorder(origin time.Time) *spanRecorder {
	return &spanRecorder{origin: origin}
}

func noEnd(time.Duration) {}

// begin opens a span at t0 under the innermost open span and returns the
// function that closes it with its duration.
func (r *spanRecorder) begin(name string, opID int, t0 time.Time) func(time.Duration) {
	if r == nil {
		return noEnd
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: opID, Parent: parent, Start: t0.Sub(r.origin)})
	r.open = append(r.open, idx)
	return func(d time.Duration) {
		r.spans[idx].Dur = d
		r.open = r.open[:len(r.open)-1]
	}
}

// traceEvent is one Chrome trace_event record ("X" complete or "M"
// metadata), timestamps in microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace renders the spans in the trace_event format the simulator's
// own -trace flag writes, loadable in chrome://tracing or Perfetto. Every
// span carries its operation id, its own id and its parent's.
func (r *spanRecorder) chromeTrace(process string) map[string]any {
	evs := []traceEvent{{Name: "process_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": process}}}
	for i, s := range r.spans {
		evs = append(evs, traceEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"op": s.Op, "id": i, "parent": s.Parent},
		})
	}
	return map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}
}

// writeTrace writes the spans as a trace_event JSON file.
func (r *spanRecorder) writeTrace(path, process string) error {
	data, err := json.Marshal(r.chromeTrace(process))
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
