package sched

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"oneport/internal/jsonw"
)

// Model selects the communication rules a schedule must obey.
type Model int

const (
	// MacroDataflow is the classical model: a cross-processor edge delays
	// its consumer by data*link, but communications consume no port
	// resources, so any number may proceed in parallel.
	MacroDataflow Model = iota
	// OnePort is the paper's bi-directional one-port model: at any instant a
	// processor is sending to at most one processor and receiving from at
	// most one processor. A send and a receive may overlap each other and
	// computation.
	OnePort
	// UniPort is the uni-directional variant discussed in §2.2-2.3 (the
	// Hollermann/Hsu model): a processor can either send or receive at a
	// given time-step, never both. Communication still overlaps computation.
	UniPort
	// OnePortNoOverlap is the §2.3 variant without communication/computation
	// overlap: the one-port rules apply and, in addition, a processor cannot
	// execute a task while one of its ports is busy.
	OnePortNoOverlap
	// LinkContention is the Sinnen–Sousa model (§2.2): ports are unlimited
	// but each (half-duplex) wire carries at most one message at a time and
	// routing is static. On a fully-connected network it behaves like
	// macro-dataflow; on sparse topologies shared wires serialize traffic.
	LinkContention
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case MacroDataflow:
		return "macro-dataflow"
	case OnePort:
		return "one-port"
	case UniPort:
		return "uni-port"
	case OnePortNoOverlap:
		return "one-port-no-overlap"
	case LinkContention:
		return "link-contention"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Models lists every communication model in the library, from the least to
// the most restrictive port discipline.
func Models() []Model {
	return []Model{MacroDataflow, LinkContention, OnePort, UniPort, OnePortNoOverlap}
}

// TaskEvent records the placement of one task.
type TaskEvent struct {
	Task   int     `json:"task"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
	Done   bool    `json:"-"` // set once the task has been scheduled
}

// Hop is one wire traversal of a (possibly routed) communication.
type Hop struct {
	FromProc int     `json:"from_proc"`
	ToProc   int     `json:"to_proc"`
	Start    float64 `json:"start"`
	Finish   float64 `json:"finish"`
}

// CommEvent records the transfer of one edge's data between distinct
// processors. Same-processor edges generate no CommEvent. On a
// fully-connected platform there is exactly one hop.
type CommEvent struct {
	FromTask int     `json:"from_task"`
	ToTask   int     `json:"to_task"`
	Data     float64 `json:"data"`
	Hops     []Hop   `json:"hops"`
}

// Start returns the instant the first hop leaves the source processor.
func (c *CommEvent) Start() float64 { return c.Hops[0].Start }

// Finish returns the instant the last hop reaches the destination processor.
func (c *CommEvent) Finish() float64 { return c.Hops[len(c.Hops)-1].Finish }

// Schedule is the output of every heuristic: one TaskEvent per task (indexed
// by task id) and the list of communication events, in the order they were
// committed.
type Schedule struct {
	Tasks []TaskEvent `json:"tasks"`
	Comms []CommEvent `json:"comms"`
	Procs int         `json:"procs"`
}

// NewSchedule returns an empty schedule for n tasks on p processors.
func NewSchedule(n, p int) *Schedule {
	s := &Schedule{Tasks: make([]TaskEvent, n), Procs: p}
	for i := range s.Tasks {
		s.Tasks[i].Task = i
		s.Tasks[i].Proc = -1
	}
	return s
}

// SetTask commits the placement of a task.
func (s *Schedule) SetTask(task, proc int, start, finish float64) {
	s.Tasks[task] = TaskEvent{Task: task, Proc: proc, Start: start, Finish: finish, Done: true}
}

// AddComm appends a communication event.
func (s *Schedule) AddComm(c CommEvent) { s.Comms = append(s.Comms, c) }

// Makespan returns the latest task finish time (communications always
// precede the finish of their consuming task in a valid schedule).
func (s *Schedule) Makespan() float64 {
	var m float64
	for i := range s.Tasks {
		if s.Tasks[i].Done && s.Tasks[i].Finish > m {
			m = s.Tasks[i].Finish
		}
	}
	return m
}

// Proc returns the processor a task is mapped to (alloc in the paper), or -1
// if the task has not been scheduled.
func (s *Schedule) Proc(task int) int {
	if !s.Tasks[task].Done {
		return -1
	}
	return s.Tasks[task].Proc
}

// CommCount returns the number of inter-processor communications, the
// quantity ILHA is designed to reduce.
func (s *Schedule) CommCount() int { return len(s.Comms) }

// TotalCommTime returns the summed duration of every hop of every
// communication.
func (s *Schedule) TotalCommTime() float64 {
	var total float64
	for i := range s.Comms {
		for _, h := range s.Comms[i].Hops {
			total += h.Finish - h.Start
		}
	}
	return total
}

// Stats summarises a schedule for reports and experiment tables.
type Stats struct {
	Makespan      float64   // schedule length
	CommCount     int       // inter-processor messages
	TotalCommTime float64   // summed hop durations
	ProcBusy      []float64 // computation time per processor
	Utilization   float64   // mean busy fraction over processors
}

// ComputeStats derives summary statistics from the schedule.
func (s *Schedule) ComputeStats() Stats {
	st := Stats{
		Makespan:      s.Makespan(),
		CommCount:     s.CommCount(),
		TotalCommTime: s.TotalCommTime(),
		ProcBusy:      make([]float64, s.Procs),
	}
	for i := range s.Tasks {
		if s.Tasks[i].Done {
			st.ProcBusy[s.Tasks[i].Proc] += s.Tasks[i].Finish - s.Tasks[i].Start
		}
	}
	if st.Makespan > 0 && s.Procs > 0 {
		var sum float64
		for _, b := range st.ProcBusy {
			sum += b / st.Makespan
		}
		st.Utilization = sum / float64(s.Procs)
	}
	return st
}

// MarshalJSON/UnmarshalJSON use the natural field encoding; Done is
// reconstructed from Proc >= 0.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(nil)
}

// AppendJSON appends the schedule's JSON encoding to dst: exactly the bytes
// encoding/json writes for its fields, without reflection. A nil schedule
// encodes as null; a NaN or infinite time fails, as it does in
// encoding/json.
func (s *Schedule) AppendJSON(dst []byte) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	var err error
	b := append(dst, `{"tasks":`...)
	if s.Tasks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range s.Tasks {
			t := &s.Tasks[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"task":`...)
			b = strconv.AppendInt(b, int64(t.Task), 10)
			b = append(b, `,"proc":`...)
			b = strconv.AppendInt(b, int64(t.Proc), 10)
			b = append(b, `,"start":`...)
			if b, err = jsonw.AppendFloat(b, t.Start); err != nil {
				return dst, err
			}
			b = append(b, `,"finish":`...)
			if b, err = jsonw.AppendFloat(b, t.Finish); err != nil {
				return dst, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"comms":`...)
	if s.Comms == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range s.Comms {
			c := &s.Comms[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"from_task":`...)
			b = strconv.AppendInt(b, int64(c.FromTask), 10)
			b = append(b, `,"to_task":`...)
			b = strconv.AppendInt(b, int64(c.ToTask), 10)
			b = append(b, `,"data":`...)
			if b, err = jsonw.AppendFloat(b, c.Data); err != nil {
				return dst, err
			}
			b = append(b, `,"hops":`...)
			if b, err = appendHops(b, c.Hops); err != nil {
				return dst, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"procs":`...)
	b = strconv.AppendInt(b, int64(s.Procs), 10)
	return append(b, '}'), nil
}

func appendHops(b []byte, hops []Hop) ([]byte, error) {
	if hops == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, '[')
	for i := range hops {
		h := &hops[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from_proc":`...)
		b = strconv.AppendInt(b, int64(h.FromProc), 10)
		b = append(b, `,"to_proc":`...)
		b = strconv.AppendInt(b, int64(h.ToProc), 10)
		b = append(b, `,"start":`...)
		if b, err = jsonw.AppendFloat(b, h.Start); err != nil {
			return b, err
		}
		b = append(b, `,"finish":`...)
		if b, err = jsonw.AppendFloat(b, h.Finish); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// UnmarshalJSON decodes a schedule and restores the Done flags.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	type alias Schedule
	if err := json.Unmarshal(data, (*alias)(s)); err != nil {
		return err
	}
	for i := range s.Tasks {
		s.Tasks[i].Done = s.Tasks[i].Proc >= 0
	}
	return nil
}

// almostLE reports a <= b up to a scale-aware tolerance; schedules are built
// from chains of float additions, so validators compare with slack.
func almostLE(a, b float64) bool {
	const eps = 1e-6
	return a <= b+eps*(1+math.Abs(a)+math.Abs(b))
}

// almostEQ reports |a-b| within the scale-aware tolerance.
func almostEQ(a, b float64) bool {
	return almostLE(a, b) && almostLE(b, a)
}
