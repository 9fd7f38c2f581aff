package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share op;
// parent is the id of the span that caused this one (0: none).
type span struct {
	name       string
	start, dur time.Duration // start is since the trace began
	id, parent int
	op         int
	tid        int // 0: the layer walk; c+1: caller c of the traced window
}

// tracer keeps spans in memory until the run ends. The benchmark records
// them from outside the program, around its calls into each layer.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: op, start: time.Since(t.t0)})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.dur = now - s.start
	t.mu.Unlock()
}

// add records a span that was timed elsewhere (a caller's sample).
func (t *tracer) add(name string, start time.Time, dur time.Duration, op, tid int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, op: op, tid: tid, start: start.Sub(t.t0), dur: dur})
}

// total is the summed duration of every span of that name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return d
}

// writeChrome writes the spans as a Chrome trace-event document, which
// Perfetto (ui.perfetto.dev) and chrome://tracing load.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ns"}
	for _, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
