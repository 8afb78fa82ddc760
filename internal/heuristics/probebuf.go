package heuristics

import (
	"oneport/internal/sched"
)

// probeBuf owns every piece of scratch memory one probe needs: the tentative
// overlay reservations (flat slices indexed by processor) and the
// comm-event/hop storage of the placement being built. A state keeps one
// probeBuf; it is reset — never reallocated — between probes, so the
// steady-state probe path performs no allocation.
//
// A buf is not tied to the state that grew it: a probe fully resets the
// buf, so strictly sequential users may share one across many states — the
// Exhaustive search points every cloned state at its root's buffer instead
// of lazily growing thousands of copies.
type probeBuf struct {
	// tentative overlay reservations by processor index, each kept sorted
	// by start (sched.AddExtra); emptied via the touched lists below
	send, recv, compute    [][]sched.Interval
	sendT, recvT, computeT []int // processors with a non-empty overlay

	// wire overlays (LinkContention only): a short linear list of slots,
	// reused — with their interval storage — across probes
	wires []wireSlot
	nw    int // live slots in wires

	// comm events of the placement being built; Hops slices are recycled
	comms []sched.CommEvent

	// stash for the best placement found so far by the scan using this buf:
	// comm events copied out of comms so later probes can safely clobber it
	best []sched.CommEvent

	// probes counts the probes run with this buf (a cut probe included) and
	// msgs the messages they placed; the tests read them through a run's
	// Scratch
	probes, msgs int
}

// wireSlot is one wire's tentative reservations during a probe.
type wireSlot struct {
	key [2]int
	iv  []sched.Interval
}

// newProbeBuf sizes a buf for a platform with p processors.
func newProbeBuf(p int) *probeBuf {
	return &probeBuf{
		send:    make([][]sched.Interval, p),
		recv:    make([][]sched.Interval, p),
		compute: make([][]sched.Interval, p),
	}
}

// fit resets the buf and sizes its per-processor overlays for p
// processors, keeping their capacity: the reset empties every overlay, so
// whatever a shrink leaves beyond p is empty when a grow takes it back.
func (b *probeBuf) fit(p int) {
	b.reset()
	b.send, b.recv, b.compute = fitOverlays(b.send, p), fitOverlays(b.recv, p), fitOverlays(b.compute, p)
}

func fitOverlays(o [][]sched.Interval, p int) [][]sched.Interval {
	if p > cap(o) {
		o = append(o[:cap(o)], make([][]sched.Interval, p-cap(o))...)
	}
	return o[:p]
}

// reset clears the overlays, wires and comm events, retaining all
// capacity. It is O(resources touched by the previous probe).
func (b *probeBuf) reset() {
	for _, p := range b.sendT {
		b.send[p] = b.send[p][:0]
	}
	for _, p := range b.recvT {
		b.recv[p] = b.recv[p][:0]
	}
	for _, p := range b.computeT {
		b.compute[p] = b.compute[p][:0]
	}
	b.sendT, b.recvT, b.computeT = b.sendT[:0], b.recvT[:0], b.computeT[:0]
	b.nw = 0
	b.comms = b.comms[:0]
}

func (b *probeBuf) addSend(p int, start, end float64) {
	if len(b.send[p]) == 0 {
		b.sendT = append(b.sendT, p)
	}
	b.send[p] = sched.AddExtra(b.send[p], start, end)
}

func (b *probeBuf) addRecv(p int, start, end float64) {
	if len(b.recv[p]) == 0 {
		b.recvT = append(b.recvT, p)
	}
	b.recv[p] = sched.AddExtra(b.recv[p], start, end)
}

func (b *probeBuf) addCompute(p int, start, end float64) {
	if len(b.compute[p]) == 0 {
		b.computeT = append(b.computeT, p)
	}
	b.compute[p] = sched.AddExtra(b.compute[p], start, end)
}

// wireExtra returns the overlay of wire k, or nil when untouched.
func (b *probeBuf) wireExtra(k [2]int) []sched.Interval {
	for i := 0; i < b.nw; i++ {
		if b.wires[i].key == k {
			return b.wires[i].iv
		}
	}
	return nil
}

func (b *probeBuf) addWire(k [2]int, start, end float64) {
	for i := 0; i < b.nw; i++ {
		if b.wires[i].key == k {
			b.wires[i].iv = sched.AddExtra(b.wires[i].iv, start, end)
			return
		}
	}
	if b.nw < len(b.wires) {
		b.wires[b.nw].key = k
		b.wires[b.nw].iv = sched.AddExtra(b.wires[b.nw].iv[:0], start, end)
	} else {
		b.wires = append(b.wires, wireSlot{key: k, iv: []sched.Interval{{Start: start, End: end}}})
	}
	b.nw++
}

// appendComm starts a new comm event in the buf, recycling the Hops slice of
// whatever event previously occupied the slot, and returns a pointer valid
// until the next append.
func (b *probeBuf) appendComm(u, v int, data float64) *sched.CommEvent {
	if len(b.comms) < cap(b.comms) {
		b.comms = b.comms[:len(b.comms)+1]
		c := &b.comms[len(b.comms)-1]
		c.FromTask, c.ToTask, c.Data = u, v, data
		c.Hops = c.Hops[:0]
		return c
	}
	b.comms = append(b.comms, sched.CommEvent{FromTask: u, ToTask: v, Data: data})
	return &b.comms[len(b.comms)-1]
}

// stashPlacement copies pl's comm events — which live in a probe buffer
// about to be clobbered by the next probe — into dst, recycling dst's hop
// storage, and returns the placement re-pointed at the stable copy. pl.comms
// must not alias *dst.
func stashPlacement(dst *[]sched.CommEvent, pl placement) placement {
	out := (*dst)[:0]
	for i := range pl.comms {
		c := &pl.comms[i]
		if len(out) < cap(out) {
			out = out[:len(out)+1]
			s := &out[len(out)-1]
			s.FromTask, s.ToTask, s.Data = c.FromTask, c.ToTask, c.Data
			s.Hops = append(s.Hops[:0], c.Hops...)
		} else {
			out = append(out, sched.CommEvent{
				FromTask: c.FromTask, ToTask: c.ToTask, Data: c.Data,
				Hops: append([]sched.Hop(nil), c.Hops...),
			})
		}
	}
	*dst = out
	pl.comms = out
	return pl
}
