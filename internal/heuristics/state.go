// Package heuristics implements the scheduling heuristics of the paper —
// the one-port adaptations of HEFT and ILHA (with every §4.4 design
// variant) — together with their classical macro-dataflow counterparts,
// the literature baselines the authors compared against (CPOP, DLS/GDL,
// BIL, PCT), a DSC-style clusterer, naive controls, a fixed-allocation
// rescheduler with a stochastic improvement pass, and an exhaustive
// branch-and-bound search used as ground truth on small instances.
//
// Every heuristic runs under any communication model in sched.Models();
// the model only changes how communications are placed, which is factored
// into the shared scheduler state below.
package heuristics

import (
	"context"
	"fmt"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// state carries the incremental resource timelines during list scheduling.
type state struct {
	g      *graph.Graph
	pl     *platform.Platform
	model  sched.Model
	routes *platform.Routes // non-nil only for sparse platforms (Platform.Routes)
	ctx    context.Context  // run deadline/cancellation; nil: never canceled

	// appendOnly disables insertion: tasks are placed after the last busy
	// interval of the processor instead of in the earliest adequate gap.
	// Communications always use gap search (ports are shared resources).
	appendOnly bool

	// per-processor timelines, held by value in one slab of 3·procs
	compute []sched.Intervals           // execution timeline
	send    []sched.Intervals           // send-port timeline (the combined port under UniPort)
	recv    []sched.Intervals           // receive-port timeline
	wires   map[[2]int]*sched.Intervals // per-wire timeline (LinkContention)

	sch *sched.Schedule

	// probe scratch, lazily created and reused across probes: the probe
	// buffer (see buf) and the predecessor buffer
	pbuf      *probeBuf
	predBuf   []predInfo
	predCount []int // per-proc counting scratch (ILHA Step 1)

	// bound scratch: bounds holds one scan's bounds (bestEFT: candidate
	// position j's finish bound at j; dlsStep: every pair's dynamic-level
	// bound), releases[i] the sender release of the task's i-th predecessor
	bounds   []float64
	releases []float64

	// hopArena chunks the committed hop copies handed to the schedule, so a
	// commit costs one allocation per arena chunk instead of one per comm
	// event. Carved slices are capacity-limited, so later arena appends can
	// never write into a slice the schedule already owns.
	hopArena []sched.Hop
}

// incumbent is the best placement an EFT scan has found so far, at
// candidate position pos.
type incumbent struct {
	pl  placement
	pos int
}

// beatenBy reports whether finish f at candidate position j beats inc under
// the (finish, position) order: the first minimum the plain
// earliest-finish loop keeps.
func (inc *incumbent) beatenBy(f float64, j int) bool {
	return f < inc.pl.finish || (f == inc.pl.finish && j < inc.pos)
}

// wire returns the timeline of the undirected wire {a,b}, creating it (and
// the wire map itself) on first use. Only commit may call it: probes must
// use wireBase, which never mutates the map (reads of a nil map are fine),
// so a probe leaves the committed state as it found it.
func (s *state) wire(a, b int) *sched.Intervals {
	if a > b {
		a, b = b, a
	}
	k := [2]int{a, b}
	w := s.wires[k]
	if w == nil {
		if s.wires == nil {
			s.wires = make(map[[2]int]*sched.Intervals)
		}
		w = &sched.Intervals{}
		s.wires[k] = w
	}
	return w
}

// wireBase returns the committed timeline of wire {a,b}, or nil when the
// wire has never carried a message (a nil View.Base is treated as empty).
func (s *state) wireBase(a, b int) *sched.Intervals {
	if a > b {
		a, b = b, a
	}
	return s.wires[[2]int{a, b}]
}

// buf returns the probe buffer, creating it on first use.
func (s *state) buf() *probeBuf {
	if s.pbuf == nil {
		s.pbuf = newProbeBuf(s.pl.NumProcs())
	}
	return s.pbuf
}

func newState(g *graph.Graph, pl *platform.Platform, model sched.Model, tune *Tuning) (*state, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := &state{
		g:     g,
		pl:    pl,
		model: model,
		ctx:   tune.runCtx(),
		sch:   sched.NewSchedule(g.NumNodes(), pl.NumProcs()),
	}
	s.compute, s.send, s.recv = timelines(make([]sched.Intervals, 3*pl.NumProcs()), pl.NumProcs())
	if tune != nil && tune.Scratch != nil {
		tune.Scratch.lend(s)
	}
	if pl.Sparse() {
		rt, err := pl.Routes()
		if err != nil {
			return nil, err
		}
		s.routes = rt
	}
	return s, nil
}

// timelines splits a slab of at least 3·n timelines into the compute, send
// and receive timelines of n processors.
func timelines(slab []sched.Intervals, n int) (compute, send, recv []sched.Intervals) {
	return slab[:n:n], slab[n : 2*n : 2*n], slab[2*n : 3*n : 3*n]
}

// clone deep-copies the state (used by the ILHA communication-rescheduling
// variant to undo a chunk's tentative placement, and by the Exhaustive
// search per branch). Probe scratch is not shared: the clone lazily grows
// its own buffer. Timeline storage is slab-allocated — one Intervals array
// and one busy-interval arena for all 3·procs (+ wires) timelines — because
// the branch-and-bound clones thousands of states and per-timeline clones
// dominated its profile.
func (s *state) clone() *state {
	n := len(s.compute)
	c := &state{
		g:          s.g,
		pl:         s.pl,
		model:      s.model,
		routes:     s.routes,
		ctx:        s.ctx,
		appendOnly: s.appendOnly,
		sch: &sched.Schedule{
			Tasks: append([]sched.TaskEvent(nil), s.sch.Tasks...),
			Comms: append([]sched.CommEvent(nil), s.sch.Comms...),
			Procs: s.sch.Procs,
		},
	}
	total := 0
	for i := 0; i < n; i++ {
		total += s.compute[i].Len() + s.send[i].Len() + s.recv[i].Len()
	}
	//schedlint:allow detorder — integer size sum; Len() is a pure getter
	for _, w := range s.wires {
		total += w.Len()
	}
	arena := make([]sched.Interval, 0, total)
	base := make([]sched.Intervals, 3*n+len(s.wires))
	c.compute, c.send, c.recv = timelines(base, n)
	for i := 0; i < n; i++ {
		c.compute[i] = s.compute[i].CloneUsing(&arena)
		c.send[i] = s.send[i].CloneUsing(&arena)
		c.recv[i] = s.recv[i].CloneUsing(&arena)
	}
	if len(s.wires) > 0 {
		c.wires = make(map[[2]int]*sched.Intervals, len(s.wires))
		wi := 3 * n
		// each wire clones into its own keyed entry; map order only decides
		// arena layout, which no schedule output ever observes
		//schedlint:allow detorder — per-key clone, order decides layout only
		for k, w := range s.wires {
			base[wi] = w.CloneUsing(&arena)
			c.wires[k] = &base[wi]
			wi++
		}
	}
	return c
}

// placement is the result of probing one candidate processor for one task.
// comms points into scratch storage owned by the state: it stays valid until
// the next probe cycle, so callers must commit (or stash, see
// stashPlacement) a placement before probing again.
type placement struct {
	proc          int
	start, finish float64
	comms         []sched.CommEvent
}

// hop returns the processor after a on the chain a message to r traverses:
// r itself on a dense platform, the routed next hop on a sparse one.
// Walking it from the sender until r visits the route without building it.
func (s *state) hop(a, r int) int {
	if s.routes != nil {
		return s.routes.Next(a, r)
	}
	return r
}

// placeComm finds, without committing, the hop chain for moving data items
// from proc q (available at time ready) to proc r, honouring the model, the
// committed timelines and the buf's tentative overlay. It appends the comm
// event and its reservations to the buf and returns the arrival time.
func (s *state) placeComm(b *probeBuf, u, v int, data float64, q, r int, ready float64) float64 {
	ev := b.appendComm(u, v, data)
	b.msgs++
	t := ready
	for pa, pb := q, s.hop(q, r); pa != r; pa, pb = pb, s.hop(pb, r) {
		dur := s.pl.CommTime(data, pa, pb)
		start := t // MacroDataflow: ports are unlimited
		switch s.model {
		case sched.OnePort:
			start = sched.EarliestGap(t, dur,
				sched.View{Base: &s.send[pa], Extra: b.send[pa]},
				sched.View{Base: &s.recv[pb], Extra: b.recv[pb]})
			b.addSend(pa, start, start+dur)
			b.addRecv(pb, start, start+dur)
		case sched.UniPort:
			// a single half-duplex port per processor: every hop occupies
			// the (combined) port of both endpoints, stored in send[].
			start = sched.EarliestGap(t, dur,
				sched.View{Base: &s.send[pa], Extra: b.send[pa]},
				sched.View{Base: &s.send[pb], Extra: b.send[pb]})
			b.addSend(pa, start, start+dur)
			b.addSend(pb, start, start+dur)
		case sched.OnePortNoOverlap:
			// one-port rules and the hop blocks computation on both ends
			start = sched.EarliestGap(t, dur,
				sched.View{Base: &s.send[pa], Extra: b.send[pa]},
				sched.View{Base: &s.recv[pb], Extra: b.recv[pb]},
				sched.View{Base: &s.compute[pa], Extra: b.compute[pa]},
				sched.View{Base: &s.compute[pb], Extra: b.compute[pb]})
			b.addSend(pa, start, start+dur)
			b.addRecv(pb, start, start+dur)
			b.addCompute(pa, start, start+dur)
			b.addCompute(pb, start, start+dur)
		case sched.LinkContention:
			k := wireKey(pa, pb)
			start = sched.EarliestGap(t, dur,
				sched.View{Base: s.wireBase(pa, pb), Extra: b.wireExtra(k)})
			b.addWire(k, start, start+dur)
		}
		ev.Hops = append(ev.Hops, sched.Hop{FromProc: pa, ToProc: pb, Start: start, Finish: start + dur})
		t = start + dur
	}
	return t
}

// wireKey canonicalizes an unordered processor pair.
func wireKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// predInfo is one incoming dependency of the task being probed.
type predInfo struct {
	node   int
	data   float64
	proc   int
	finish float64
}

// preds gathers the (already scheduled) predecessors of v sorted by
// ascending finish time (ties by node id), the greedy order in which their
// messages are serialized. The returned slice is scratch owned by the state
// and stays valid until the next preds call.
func (s *state) preds(v int) []predInfo {
	out := s.predsInto(s.predBuf[:0], v)
	s.predBuf = out
	return out
}

// predsInto appends v's placed predecessors to buf, sorted by ascending
// finish time (ties by node id), and returns the extended slice. It is the
// arena-friendly form of preds: DLS's twin classes (twins.admit)
// pack the pred lists of a release batch back to back.
func (s *state) predsInto(buf []predInfo, v int) []predInfo {
	base := len(buf)
	for _, a := range s.g.Pred(v) {
		ev := &s.sch.Tasks[a.Node]
		if !ev.Done {
			panic(fmt.Sprintf("heuristics: task %d probed before predecessor %d", v, a.Node))
		}
		buf = append(buf, predInfo{node: a.Node, data: a.Data, proc: ev.Proc, finish: ev.Finish})
	}
	// insertion sort: pred lists are short and often nearly sorted, and this
	// avoids the sort.Slice closure allocation on the hot path
	out := buf[base:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && predLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return buf
}

func predLess(a, b predInfo) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.node < b.node
}

// probe computes the full placement of task v on processor proc with the
// state's probe buffer: the entry point of every placement on a fixed
// processor. See probeAgainst for the contract.
func (s *state) probe(v, proc int) placement {
	pl, _ := s.probeAgainst(s.buf(), v, proc, s.preds(v), nil, 0)
	return pl
}

// probeAgainst computes the full placement of task v on processor proc,
// given v's placed predecessors preds: it tentatively schedules every
// incoming communication as early as possible (in pred finish-time order,
// honouring the one-port constraint when the model asks for it) and then
// finds the earliest compute gap. Nothing is committed; all tentative
// reservations live in b, and the returned placement's comms point into b
// (valid until b's next probe).
//
// With a non-nil inc, the best placement so far of an EFT scan in which
// proc is the candidate at position j, the probe stops after each
// predecessor, and again after the append-only horizon, once ready + dur
// can no longer beat inc under (finish, position), and reports itself
// cut, skipping the remaining messages and the compute gap search; a cut
// probe's placement is empty. The cut is exact — ready only grows, the gap
// search never returns a time before its start, and fl(a+d) ≤ fl(b+d) when
// a ≤ b — so a cut probe could not have won. A nil inc never cuts.
func (s *state) probeAgainst(b *probeBuf, v, proc int, preds []predInfo, inc *incumbent, j int) (pl placement, cut bool) {
	b.reset()
	b.probes++
	dur := s.pl.ExecTime(s.g.Weight(v), proc)
	ready := 0.0
	for _, p := range preds {
		if p.proc == proc {
			if p.finish > ready {
				ready = p.finish
			}
		} else if arrival := s.placeComm(b, p.node, v, p.data, p.proc, proc, p.finish); arrival > ready {
			ready = arrival
		}
		if inc != nil && !inc.beatenBy(ready+dur, j) {
			return placement{}, true
		}
	}
	if s.appendOnly && s.compute[proc].LastEnd() > ready {
		ready = s.compute[proc].LastEnd()
		if inc != nil && !inc.beatenBy(ready+dur, j) {
			return placement{}, true
		}
	}
	// under OnePortNoOverlap the task's own incoming messages also reserved
	// the processor's compute timeline (b.compute), so include the overlay;
	// without one the committed timeline alone takes the single-timeline walk
	var start float64
	if len(b.compute[proc]) == 0 {
		start = s.compute[proc].EarliestGap(ready, dur)
	} else {
		start = sched.EarliestGap(ready, dur, sched.View{Base: &s.compute[proc], Extra: b.compute[proc]})
	}
	return placement{proc: proc, start: start, finish: start + dur, comms: b.comms}, false
}

// commit applies a placement: communication hops are reserved on the port
// timelines, the task occupies its compute window, and the schedule records
// both. The schedule takes ownership of a fresh copy of each event's hops
// (the placement's hop storage is probe scratch that will be recycled).
//
// commit is also the run's cancellation point: it executes once per task
// placement (per branch expansion in the exhaustive search), between
// probes — so when the run's Tuning.Ctx has expired, aborting here leaves
// no probe half done, and unwinding (including Tuning.reclaim) is safe.
// The abort travels as a runCanceled panic recovered at the ByNameTuned
// boundary into an ErrCanceled error.
func (s *state) commit(v int, pl placement) {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			panic(runCanceled{err})
		}
	}
	for _, c := range pl.comms {
		for _, h := range c.Hops {
			switch s.model {
			case sched.OnePort:
				s.send[h.FromProc].Add(h.Start, h.Finish)
				s.recv[h.ToProc].Add(h.Start, h.Finish)
			case sched.UniPort:
				s.send[h.FromProc].Add(h.Start, h.Finish)
				s.send[h.ToProc].Add(h.Start, h.Finish)
			case sched.OnePortNoOverlap:
				s.send[h.FromProc].Add(h.Start, h.Finish)
				s.recv[h.ToProc].Add(h.Start, h.Finish)
				s.compute[h.FromProc].Add(h.Start, h.Finish)
				s.compute[h.ToProc].Add(h.Start, h.Finish)
			case sched.LinkContention:
				s.wire(h.FromProc, h.ToProc).Add(h.Start, h.Finish)
			}
		}
		c.Hops = s.ownHops(c.Hops)
		s.sch.AddComm(c)
	}
	s.compute[pl.proc].Add(pl.start, pl.finish)
	s.sch.SetTask(v, pl.proc, pl.start, pl.finish)
}

// ownHops copies probe-scratch hops into the state's arena and returns a
// stable, capacity-limited slice the schedule can own. Chunks grow
// geometrically (64 up to 1024): a long list-scheduling run converges on
// one allocation per ~1024 hops, while the branch-and-bound's short-lived
// clones, which commit a single task each, no longer pay a 1024-hop chunk
// for a handful of hops.
func (s *state) ownHops(hops []sched.Hop) []sched.Hop {
	if cap(s.hopArena)-len(s.hopArena) < len(hops) {
		n := 2 * cap(s.hopArena)
		if n < 64 {
			n = 64
		}
		if n > 1024 {
			n = 1024
		}
		if len(hops) > n {
			n = len(hops)
		}
		s.hopArena = make([]sched.Hop, 0, n)
	}
	n0 := len(s.hopArena)
	s.hopArena = append(s.hopArena, hops...)
	return s.hopArena[n0:len(s.hopArena):len(s.hopArena)]
}

// candidateAt returns the processor at candidate position j.
func candidateAt(candidates []int, j int) int {
	if candidates == nil {
		return j
	}
	return candidates[j]
}

// senderReleases returns, for each predecessor in preds, its sender
// release: the earliest time its message could leave its processor q on
// the committed timelines. It is a gap search on q's sender-side timeline,
// from the predecessor's finish, for the message's data times MinOut(q),
// the cheapest first hop any route out of q can take. The sender-side
// timeline is send[q] under OnePort and UniPort (the combined port), and
// send[q] plus compute[q] under OnePortNoOverlap, where a hop blocks the
// sender's computation. MacroDataflow has no ports and LinkContention
// queues messages on wires, so under those the release is the finish. The
// returned slice is state scratch, valid until the next call.
func (s *state) senderReleases(preds []predInfo) []float64 {
	rel := s.releases[:0]
	for i := range preds {
		pr := &preds[i]
		t, dur := pr.finish, pr.data*s.pl.MinOut(pr.proc)
		switch s.model {
		case sched.OnePort, sched.UniPort:
			t = s.send[pr.proc].EarliestGap(t, dur)
		case sched.OnePortNoOverlap:
			t = sched.EarliestGap(t, dur, sched.View{Base: &s.send[pr.proc]}, sched.View{Base: &s.compute[pr.proc]})
		}
		rel = append(rel, t)
	}
	s.releases = rel
	return rel
}

// readyBounds sets ready[j], for every candidate position j, to a lower
// bound on the earliest start the incoming messages of a probe on
// processor candidateAt(candidates, j) allow, without probing; rel holds
// the predecessors' sender releases (senderReleases). It runs one
// predecessor at a time over every position. A local predecessor
// contributes its finish. A remote one on q contributes its release plus
// its route's hop durations, the same CommTime terms placeComm adds, in the
// same order. On a dense platform the route is the one wire q→p, so when
// every processor is a candidate the term is release + data × link(q, p),
// read along row q of the link matrix; otherwise the chain walks
// state.hop, one hop on a dense platform, with the same float operations.
//
// It is sound because the probe's first hop starts no earlier than the
// release (it searches from the predecessor's finish, on the same
// timelines plus more, for a window at least as long), a later hop never
// starts before the previous one ends, and the same float sums, added in
// the same order, round monotonically.
func (s *state) readyBounds(ready []float64, candidates []int, preds []predInfo, rel []float64) {
	clear(ready)
	for i := range preds {
		q, finish, release, data := preds[i].proc, preds[i].finish, rel[i], preds[i].data
		if s.routes == nil && candidates == nil {
			for p, link := range s.pl.LinkRow(q)[:len(ready)] {
				t := finish
				if p != q {
					t = release + data*link
				}
				if t > ready[p] {
					ready[p] = t
				}
			}
			continue
		}
		for j := range ready {
			p := candidateAt(candidates, j)
			t := finish
			if p != q {
				t = release
				for a, b := q, s.hop(q, p); a != p; a, b = b, s.hop(b, p) {
					t += s.pl.CommTime(data, a, b)
				}
			}
			if t > ready[j] {
				ready[j] = t
			}
		}
	}
}

// startFrom returns the start a gap search on p's committed compute
// timeline gives a task of duration dur whose messages allow it to start
// at ready, after the append-only horizon. A search from at or past the
// timeline's last busy end returns its start, so that case skips it.
func (s *state) startFrom(ready, dur float64, p int) float64 {
	c := &s.compute[p]
	if last := c.LastEnd(); last > ready {
		if s.appendOnly {
			return last
		}
		return c.EarliestGap(ready, dur)
	}
	return ready
}

// startBounds sets start[p], for every processor p, to a lower bound on
// the start a probe of task v on p returns, without probing: readyBounds
// from the predecessors' sender releases, then startFrom — bestEFT's
// finish bound before it adds the execution time. The bound is sound
// because a gap search never returns earlier from a later start or on a
// superset of busy intervals (the probe searches the committed timeline
// plus its own overlay). DLS turns it into a dynamic-level bound
// (dlsStep), and the Exhaustive search adds the remaining bottom level.
func (s *state) startBounds(start []float64, v int) {
	preds := s.preds(v)
	s.readyBounds(start, nil, preds, s.senderReleases(preds))
	w := s.g.Weight(v)
	for p, ready := range start {
		start[p] = s.startFrom(ready, s.pl.ExecTime(w, p), p)
	}
}

// scratchBounds returns the state's bound scratch resliced to n values.
func (s *state) scratchBounds(n int) []float64 {
	if cap(s.bounds) < n {
		s.bounds = make([]float64, n)
	}
	return s.bounds[:n]
}

// bestEFT returns the placement of task v with the earliest finish time
// over the processors in candidates (all processors when nil), breaking
// ties by the lowest candidate position — with ascending candidates that is
// the lowest processor index, the paper's convention.
//
// It probes only the candidates that can win. It bounds every candidate's
// finish without probing — readyBounds for all of them at once, then
// startFrom and the execution time, as startBounds does for every
// processor — and the candidate with the smallest bound (ties by position)
// is probed first, as the seed, and any other, in position order, only
// while its bound can still beat the incumbent under (finish, position). A candidate whose
// bound cannot beat the incumbent cannot be the answer, so the result is
// exactly the placement the plain loop over every candidate returns. A
// probed candidate's probe stops once it cannot beat the incumbent
// (probeAgainst), and a probe that beats it is stashed in the probe buffer.
func (s *state) bestEFT(v int, candidates []int) placement {
	n := len(candidates)
	if candidates == nil {
		n = s.pl.NumProcs()
	}
	bounds := s.scratchBounds(n)
	preds := s.preds(v)
	weight := s.g.Weight(v)
	s.readyBounds(bounds, candidates, preds, s.senderReleases(preds))
	seed := 0
	for j, ready := range bounds {
		p := candidateAt(candidates, j)
		dur := s.pl.ExecTime(weight, p)
		bounds[j] = s.startFrom(ready, dur, p) + dur
		if bounds[j] < bounds[seed] {
			seed = j
		}
	}
	b := s.buf()
	seedPl, _ := s.probeAgainst(b, v, candidateAt(candidates, seed), preds, nil, seed)
	best := incumbent{pl: seedPl, pos: seed}
	stashed := false // the seed's comms may stay in probe scratch while no probe follows
	for j, bd := range bounds {
		if j == seed || !best.beatenBy(bd, j) {
			continue
		}
		if !stashed {
			best.pl, stashed = stashPlacement(&b.best, best.pl), true
		}
		pl, cut := s.probeAgainst(b, v, candidateAt(candidates, j), preds, &best, j)
		if !cut && best.beatenBy(pl.finish, j) {
			best = incumbent{pl: stashPlacement(&b.best, pl), pos: j}
		}
	}
	return best.pl
}

// priorities computes the paper's bottom levels: task weights scaled by the
// harmonic-mean cycle-time, edge volumes scaled by the harmonic-mean link
// cost (§4.1).
func priorities(g *graph.Graph, pl *platform.Platform) ([]float64, error) {
	return g.BottomLevels(pl.AvgExecFactor(), pl.AvgLinkFactor())
}

// listOrder returns the commit order of the static-priority list
// scheduler: the ready list pops the highest priority, ties by the lower
// task id, and a task becomes ready once its last predecessor is
// committed. The order depends on the graph and the priorities alone,
// never on placements, so every static-order heuristic computes it first
// and then commits its tasks in it. g must be acyclic (newState validated
// it).
func listOrder(g *graph.Graph, prio []float64) []int {
	ready := newReadyList(prio)
	rel := newReleaser(g)
	for _, v := range rel.initial() {
		ready.push(v)
	}
	order := make([]int, 0, g.NumNodes())
	for !ready.empty() {
		v := ready.pop()
		order = append(order, v)
		for _, nv := range rel.release(v) {
			ready.push(nv)
		}
	}
	return order
}

// readyList maintains the set of ready tasks ordered by decreasing priority
// (ties by increasing node id). It is an indexed binary max-heap: push, pop
// and remove are O(log n) instead of the former sorted slice's O(n)
// insertion shuffle, and the position index lets the frontier heuristic
// (DLS) remove an arbitrary selected task. The comparison is a total order
// — priority desc, task id asc — so the pop sequence is exactly the sorted
// order the old implementation produced, whatever the heap's internal
// layout (TestReadyListMatchesSortedReference pins this).
type readyList struct {
	prio []float64
	heap []int
	pos  []int // task id -> heap index, -1 when absent
}

func newReadyList(prio []float64) *readyList {
	pos := make([]int, len(prio))
	for i := range pos {
		pos[i] = -1
	}
	return &readyList{prio: prio, pos: pos}
}

func (r *readyList) less(a, b int) bool {
	if r.prio[a] != r.prio[b] {
		return r.prio[a] > r.prio[b]
	}
	return a < b
}

// push inserts a task.
func (r *readyList) push(v int) {
	r.heap = append(r.heap, v)
	r.pos[v] = len(r.heap) - 1
	r.up(len(r.heap) - 1)
}

// pop removes and returns the highest-priority task.
func (r *readyList) pop() int {
	v := r.heap[0]
	r.removeAt(0)
	return v
}

// popN removes and returns up to n highest-priority tasks, in order.
func (r *readyList) popN(n int) []int {
	if n > len(r.heap) {
		n = len(r.heap)
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.pop())
	}
	return out
}

// remove deletes task v (which must be present) from the set.
func (r *readyList) remove(v int) { r.removeAt(r.pos[v]) }

// items returns the live tasks in unspecified (heap) order. The slice is the
// heap's own storage: read-only, valid until the next mutation.
func (r *readyList) items() []int { return r.heap }

func (r *readyList) empty() bool { return len(r.heap) == 0 }
func (r *readyList) len() int    { return len(r.heap) }

func (r *readyList) removeAt(i int) {
	n := len(r.heap) - 1
	r.pos[r.heap[i]] = -1
	if i != n {
		moved := r.heap[n]
		r.heap[i] = moved
		r.pos[moved] = i
		r.heap = r.heap[:n]
		if !r.down(i) {
			r.up(i)
		}
	} else {
		r.heap = r.heap[:n]
	}
}

func (r *readyList) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !r.less(r.heap[i], r.heap[parent]) {
			return
		}
		r.swap(i, parent)
		i = parent
	}
}

func (r *readyList) down(i int) bool {
	moved := false
	for {
		c := 2*i + 1
		if c >= len(r.heap) {
			return moved
		}
		if rc := c + 1; rc < len(r.heap) && r.less(r.heap[rc], r.heap[c]) {
			c = rc
		}
		if !r.less(r.heap[c], r.heap[i]) {
			return moved
		}
		r.swap(i, c)
		i = c
		moved = true
	}
}

func (r *readyList) swap(i, j int) {
	r.heap[i], r.heap[j] = r.heap[j], r.heap[i]
	r.pos[r.heap[i]] = i
	r.pos[r.heap[j]] = j
}

// releaser tracks remaining in-degrees and reports which tasks become ready
// once a task completes.
type releaser struct {
	g     *graph.Graph
	indeg []int
	out   []int // scratch returned by release, reused across calls
}

func newReleaser(g *graph.Graph) *releaser {
	ind := make([]int, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		ind[v] = g.InDegree(v)
	}
	return &releaser{g: g, indeg: ind}
}

// initial returns the entry tasks.
func (rl *releaser) initial() []int {
	var out []int
	for v, d := range rl.indeg {
		if d == 0 {
			out = append(out, v)
		}
	}
	return out
}

// release marks v scheduled and returns the tasks that become ready. The
// returned slice is scratch reused by the next release call.
func (rl *releaser) release(v int) []int {
	out := rl.out[:0]
	for _, a := range rl.g.Succ(v) {
		rl.indeg[a.Node]--
		if rl.indeg[a.Node] == 0 {
			out = append(out, a.Node)
		}
	}
	rl.out = out
	return out
}
