package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation
// share op; parent is the id of the enclosing span (0 for a root).
type span struct {
	name       string
	id, parent int
	op         int
	tid        int
	start, end time.Time
}

// tracer records spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextID int
	nextOp int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a finished span and returns its id. id 0 asks for a new id;
// a parent span recorded after its children passes the id reserved for it
// with reserve.
func (t *tracer) add(name string, id, parent, op, tid int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: op, tid: tid, start: start, end: end})
	return id
}

// reserve returns a span id for a parent recorded after its children.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// op records one load-generator operation: a root span name from due to
// end, with loadgen.wait (due to start) and the call itself, child (start
// to end), beneath it.
func (t *tracer) op(name, child string, worker int, phaseStart time.Time, s sample) {
	if t == nil {
		return
	}
	op := t.newOp()
	root := t.reserve()
	due, start, end := phaseStart.Add(s.due), phaseStart.Add(s.start), phaseStart.Add(s.end)
	t.add("loadgen.wait", 0, root, op, worker, due, start)
	t.add(child, 0, root, op, worker, start, end)
	t.add(name, root, 0, op, worker, due, end)
}

// traceEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing load a JSON object holding a list of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write saves the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		f.Close()
		return err
	}
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: us(s.start.Sub(t.t0)), Dur: us(s.end.Sub(s.start)),
			Args: map[string]int{"id": s.id, "parent": s.parent, "op": s.op},
		}
		if err := enc.Encode(&ev); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
