package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of client connections, and so of workers issuing
// requests: the server pool is 2 slots, so no request ever queues for
// admission inside the server.
const conns = 2

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sample is the timing of one operation, as offsets from its phase's
// start. In a closed loop an operation is due when it starts. class groups
// operations that do the same work (the same request shape, say), and
// tasks is the number of tasks the operation scheduled or answered for.
type sample struct {
	due, start, end time.Duration
	class, tasks    int32
	ok              bool
}

func (s sample) latency() time.Duration { return s.end - s.due }
func (s sample) service() time.Duration { return s.end - s.start }

// outcome is what an operation reports about itself.
type outcome struct {
	class, tasks int
	ok           bool
}

// phase is the outcome of one open- or closed-loop phase.
type phase struct {
	samples []sample
	late    []time.Duration // open loop: how late the generator released each op
	elapsed time.Duration   // closed loop: phase start to last completion
}

// opFunc performs operation i of a phase on worker w.
type opFunc func(w, i int) outcome

// openLoop releases operations at Poisson arrival times of the given rate
// for dur and hands them to conns workers in order. Each is timed from
// when it was due, so time spent waiting for a free worker counts.
func openLoop(rng *rand.Rand, rate float64, dur time.Duration, tr *tracer, name string, op opFunc) phase {
	var offs []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			break
		}
		offs = append(offs, d)
	}
	p := phase{samples: make([]sample, len(offs)), late: make([]time.Duration, len(offs))}
	ch := make(chan int, len(offs)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				s := sample{due: offs[i], start: time.Since(start)}
				s.record(op(w, i), start)
				p.samples[i] = s
				tr.op(name, "http.roundtrip", w, start, s)
			}
		}()
	}
	// time.Sleep wakes up to a millisecond late here (the runtime's timers
	// ride on a millisecond poll timeout), as long as the gap between
	// requests at 1000/s; nanosleep on a locked thread with 1ns timer
	// slack releases requests within microseconds of their due time
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0) // back to the thread default
	for i, off := range offs {
		// a signal (the runtime preempts with SIGURG) ends a nanosleep early
		for d := time.Until(start.Add(off)); d > 0; d = time.Until(start.Add(off)) {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		p.late[i] = time.Since(start) - off
		ch <- i
	}
	close(ch)
	wg.Wait()
	return p
}

// closedLoop runs operations back to back on conns workers until dur has
// passed or max operations were started.
func closedLoop(dur time.Duration, max int, tr *tracer, name string, op opFunc) phase {
	var next atomic.Int64
	var mu sync.Mutex
	var p phase
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < dur {
				i := int(next.Add(1)) - 1
				if i >= max {
					break
				}
				s := sample{start: time.Since(start)}
				s.due = s.start
				s.record(op(w, i), start)
				mine = append(mine, s)
				tr.op(name, "http.roundtrip", w, start, s)
			}
			mu.Lock()
			p.samples = append(p.samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

func (s *sample) record(o outcome, phaseStart time.Time) {
	s.end = time.Since(phaseStart)
	s.class, s.tasks, s.ok = int32(o.class), int32(o.tasks), o.ok
}

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// The end-to-end numbers are best-of statistics. On a shared host,
// neighbours slow this machine's memory-bound work by up to 2x for
// seconds to minutes at a time, while the fastest operations of a run
// repeat within a few percent. So every operation is counted at the
// shortest time any operation of its class took in the same phase:
// percentiles and throughput then keep the phase's request mix but not
// the interference. What they leave out (queueing, GC pauses, stalls) is
// in the traced run's loadgen metrics and the raw numbers of the report.

// bestOf returns, for every successful sample, the shortest d among the
// successful samples of its class, in milliseconds.
func (p phase) bestOf(d func(sample) time.Duration) []float64 {
	best := map[int32]time.Duration{}
	for _, s := range p.samples {
		if b, ok := best[s.class]; s.ok && (!ok || d(s) < b) {
			best[s.class] = d(s)
		}
	}
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if s.ok {
			out = append(out, ms(best[s.class]))
		}
	}
	return out
}

// bestThroughput returns the operations and tasks per second that callers
// running the phase's mix back to back would complete if each operation
// took its class's best service time.
func (p phase) bestThroughput(callers int) (opsPerS, tasksPerS float64) {
	var total time.Duration
	tasks := 0
	best := p.bestOf(sample.service)
	for i, s := range okSamples(p.samples) {
		total += time.Duration(best[i] * 1e6)
		tasks += int(s.tasks)
	}
	secs := total.Seconds() / float64(callers)
	return float64(len(best)) / secs, float64(tasks) / secs
}

func okSamples(ss []sample) []sample {
	out := make([]sample, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, s)
		}
	}
	return out
}

// waits returns how long each operation waited between being due and
// starting.
func (p phase) waits() []time.Duration {
	out := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.start - s.due
	}
	return out
}

// clientConn is one keep-alive HTTP/1.1 connection to the server, driven
// directly: a request goes out in one writev and the response is parsed
// with http.ReadResponse on the same goroutine, so no transport goroutines
// and their wake-ups sit between the timer and the wire.
type clientConn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	hdr  []byte
}

// post sends body to path and reads the whole answer into into. A non-200
// status is an error. A broken connection is redialled on the next call.
func (cc *clientConn) post(path string, body []byte, into *bytes.Buffer) error {
	err := cc.roundTrip(path, body, into)
	if err != nil && cc.c != nil {
		cc.c.Close()
		cc.c = nil
	}
	return err
}

func (cc *clientConn) roundTrip(path string, body []byte, into *bytes.Buffer) error {
	if cc.c == nil {
		c, err := net.Dial("tcp", cc.addr)
		if err != nil {
			return err
		}
		cc.c, cc.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	cc.hdr = fmt.Appendf(cc.hdr[:0], "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, cc.addr, len(body))
	bufs := net.Buffers{cc.hdr, body}
	if _, err := bufs.WriteTo(cc.c); err != nil {
		return err
	}
	resp, err := http.ReadResponse(cc.br, nil)
	if err != nil {
		return err
	}
	into.Reset()
	_, err = io.Copy(into, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, into.Bytes())
	}
	return nil
}

func (cc *clientConn) close() {
	if cc.c != nil {
		cc.c.Close()
		cc.c = nil
	}
}
